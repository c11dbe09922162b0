// Fixture: mutating expressions in the arguments of check-hook
// notifications.  Both sites below steer simulation state from inside the
// call, so a run with a checker attached simulates a different world than
// the bare run.
struct Hook {
  virtual ~Hook() = default;
  virtual void on_fire(unsigned long seq) = 0;
  virtual void on_chunk(int side, unsigned long seq, unsigned idx,
                        bool duplicate) = 0;
};

struct Engine {
  Hook* hook = nullptr;
  unsigned long seq = 0;
  bool armed = false;

  void step() {
    if (hook != nullptr) hook->on_fire(++seq);  // increment in hook argument
    if (hook != nullptr)
      hook->on_chunk(0, seq, 0, armed = false);  // assignment in hook argument
  }

  // Observe-only notification: comparisons and arithmetic are fine.
  void probe() {
    if (hook != nullptr) hook->on_chunk(0, seq - 1, 0, seq == 0);
  }
};
