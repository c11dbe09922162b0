// Fixture: observe-only check-hook notifications, with the simulation's own
// state maintenance done outside the call.  check-side-effect must stay
// silent.
struct Hook {
  virtual ~Hook() = default;
  virtual void on_fire(unsigned long seq) = 0;
  virtual void on_message(int side, unsigned long seq, unsigned long bytes) = 0;
};

struct Engine {
  Hook* hook = nullptr;
  unsigned long seq = 0;
  unsigned long delivered = 0;

  void step() {
    ++seq;  // state maintenance, outside the notification
    if (hook != nullptr) hook->on_fire(seq);
    if (hook != nullptr && seq >= 1) hook->on_fire(seq - 1);
    if (hook != nullptr) hook->on_message(0, delivered, seq << 2);
  }
};
