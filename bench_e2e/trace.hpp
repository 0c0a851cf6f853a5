// In-memory span recorder for the traced runs of bench_e2e.
//
// A span is one call into a library layer, recorded from the benchmark
// side of the call: name, start, end, the span that was open on the
// same thread when it began (its parent), and the unit / request id the
// work belongs to (inherited from the parent unless given).  Spans are
// kept in per-thread buffers and only read after every recording thread
// has been joined, so recording takes no lock.
//
// Recording is off by default; a disabled Span costs one relaxed atomic
// load.  The untraced half of a traced run and every untraced run
// measure with recording off.
#ifndef QAOAML_BENCH_E2E_TRACE_HPP
#define QAOAML_BENCH_E2E_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e::trace {

/// Marks "inherit the parent's unit id" in Span's constructor.
inline constexpr std::uint64_t kInheritUnit = ~std::uint64_t{0};

struct Record {
  const char* name = "";     ///< static string; spans are named by layer
  std::uint64_t id = 0;      ///< unique, never 0
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t unit = 0;
  std::int64_t start_ns = 0;  ///< steady_clock
  std::int64_t end_ns = 0;
  int thread = 0;
};

void set_enabled(bool on);
bool enabled();

/// RAII span: records [construction, destruction) on the calling thread
/// when recording is enabled.  Not copyable or movable: the per-thread
/// stack of open spans assumes strict nesting.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t unit = kInheritUnit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;  // 0 = not recording
  std::uint64_t parent_ = 0;
  std::uint64_t unit_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far, all threads.  Call only after the threads
/// that recorded them have been joined.
std::vector<Record> collect();

/// Per-name totals over the spans of one subtree.  Self time is a span's
/// duration minus the part its direct children cover.
struct NameStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, NameStats> stats_under(const std::vector<Record>& spans,
                                             std::uint64_t root_id);

/// Id of the most recent span called `name`, or 0.
std::uint64_t last_id(const std::vector<Record>& spans, const char* name);

/// Writes the spans as one JSON object ({"spans": [...]}, times in µs
/// since the first span).  Returns false when the file cannot be written.
bool write_json(const std::vector<Record>& spans, const std::string& path);

}  // namespace e2e::trace

#endif  // QAOAML_BENCH_E2E_TRACE_HPP
