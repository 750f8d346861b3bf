// Per-architecture hardware-counter catalogs.
//
// The paper's modeling uses the CUDA Profiler's counters: 32 on the Tesla
// board, 74 on the Fermi boards, 108 on the Kepler board (Section IV-A).
// Each catalog entry derives its value from the engine's ground-truth
// events and carries the paper's core-event / memory-event classification
// ("core-events are the events which happen within the core where
// memory-events are un-core events such as memory accesses").
#pragma once

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/arch.hpp"
#include "gpusim/events.hpp"

namespace gppm::profiler {

/// The paper's two-way counter classification used by Eq. 1 / Eq. 2.
enum class EventClass { Core, Memory };

std::string to_string(EventClass c);

/// An immutable counter name.  It has two forms:
///   * borrowed — points at a string that lives for the whole process (a
///     catalog entry's name, a baseline pseudo-feature).  Copying it copies
///     a pointer: no allocation, no atomic read-modify-write.  Every
///     reading the profiler collects and every dense reading the wire
///     decodes carries a borrowed name, so copying a profile allocates
///     nothing per counter.
///   * owned — holds its own string (shared between copies).  Off-catalog
///     names take this form: mix pseudo-counters and named readings from
///     the wire.  Peer-supplied strings are never interned in a global
///     table, which would grow without bound.
/// Both forms compare and print by their bytes alone, and convert
/// implicitly to `const std::string&`, so nothing downstream can tell them
/// apart.  A default-constructed or moved-from name is empty.
class CounterName {
 public:
  CounterName() noexcept = default;
  /// Owned names; implicit, so readings initialise from strings as before.
  CounterName(std::string name)
      : name_(std::make_shared<const std::string>(std::move(name))) {}
  CounterName(const char* name) : CounterName(std::string(name)) {}

  /// A borrowed name.  `name` must outlive every copy of the handle.
  static CounterName borrow(const std::string& name) noexcept {
    CounterName n;
    // The aliasing constructor over an empty owner: a stored pointer with
    // no control block, so copies never touch a reference count.
    n.name_ = std::shared_ptr<const std::string>(
        std::shared_ptr<const std::string>(), &name);
    return n;
  }

  const std::string& str() const noexcept {
    return name_ ? *name_ : empty_name();
  }
  operator const std::string&() const noexcept { return str(); }
  const char* data() const noexcept { return str().data(); }
  std::size_t size() const noexcept { return str().size(); }
  std::string::const_iterator begin() const noexcept { return str().begin(); }
  std::string::const_iterator end() const noexcept { return str().end(); }
  /// True for a borrowed (or empty) name, false for an owned one.
  bool is_borrowed() const noexcept { return name_.use_count() == 0; }

  friend bool operator==(const CounterName& a, const CounterName& b) noexcept {
    return a.name_ == b.name_ || a.str() == b.str();
  }
  friend bool operator==(const CounterName& a, const std::string& b) noexcept {
    return a.str() == b;
  }
  friend bool operator==(const CounterName& a, std::string_view b) noexcept {
    return std::string_view(a.str()) == b;
  }
  friend bool operator==(const CounterName& a, const char* b) noexcept {
    return a.str() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const CounterName& n) {
    return os << n.str();
  }

 private:
  static const std::string& empty_name() noexcept;

  std::shared_ptr<const std::string> name_;
};

/// One hardware counter exposed by an architecture's profiler.
struct CounterDef {
  /// Borrowed: catalogs live for the whole process.
  CounterName name;
  EventClass klass;
  /// Derive the counter value from ground-truth events.  Deterministic;
  /// the profiler layer adds the observation artifacts on top.
  std::function<double(const sim::HardwareEvents&)> extract;
};

/// The counter catalog of an architecture.  Sizes match the paper exactly:
/// Tesla 32, Fermi 74, Kepler 108.  Built once per process and never
/// destroyed, so the names it lends out stay valid through exit.
const std::vector<CounterDef>& counter_catalog(sim::Architecture arch);

/// Index of a counter by name; throws on unknown names.
std::size_t counter_index(sim::Architecture arch, const std::string& name);

}  // namespace gppm::profiler
