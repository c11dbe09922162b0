#include "obs/registry.hpp"

#include <stdexcept>

namespace gtw::obs {

Counter& Registry::counter(const std::string& name) {
  if (name.empty()) throw std::logic_error("obs: empty instrument name");
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted && (it->second.kind != Kind::kCounter || it->second.counter_fn))
    throw std::logic_error("obs: instrument name collision on '" + name +
                           "' (existing probe or gauge)");
  return it->second.counter;
}

void Registry::probe_counter(const std::string& name,
                             std::function<std::uint64_t()> fn) {
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted)
    throw std::logic_error("obs: instrument name collision on '" + name +
                           "' (probe over existing instrument)");
  it->second.kind = Kind::kCounter;
  it->second.counter_fn = std::move(fn);
}

void Registry::probe_gauge(const std::string& name,
                           std::function<double()> fn) {
  auto [it, inserted] = instruments_.try_emplace(name);
  if (!inserted)
    throw std::logic_error("obs: instrument name collision on '" + name +
                           "' (probe over existing instrument)");
  it->second.kind = Kind::kGauge;
  it->second.gauge_fn = std::move(fn);
}

void Registry::mark(const std::string& name, des::SimTime t, bool begin) {
  marks_.push_back(Mark{t, name, begin});
}

bool Registry::contains(const std::string& name) const {
  return instruments_.find(name) != instruments_.end();
}

double Registry::read(const std::string& name) const {
  const auto it = instruments_.find(name);
  if (it == instruments_.end())
    throw std::out_of_range("obs: unknown instrument '" + name + "'");
  const Instrument& ins = it->second;
  switch (ins.kind) {
    case Kind::kCounter:
      return static_cast<double>(ins.counter_fn ? ins.counter_fn()
                                                : ins.counter.value());
    case Kind::kGauge:
      return ins.gauge_fn();
  }
  return 0.0;
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(instruments_.size());
  for (const auto& [name, ins] : instruments_) {
    Sample s;
    s.name = name;
    s.kind = ins.kind;
    switch (ins.kind) {
      case Kind::kCounter:
        s.u = ins.counter_fn ? ins.counter_fn() : ins.counter.value();
        break;
      case Kind::kGauge:
        s.d = ins.gauge_fn();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace gtw::obs
