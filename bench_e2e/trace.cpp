#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace e2e::trace {
namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  int thread = 0;
  std::uint64_t next = 0;
  std::vector<Record> records;
  std::vector<std::uint64_t> open_ids;  // innermost last
  std::vector<std::uint64_t> open_units;
};

// Buffers outlive their threads (collect() runs after the joins), so the
// registry owns them; a thread only touches its own buffer.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_registry;

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<Buffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<int>(g_registry.size());
  }
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t unit) : name_(name) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  id_ = (static_cast<std::uint64_t>(buffer.thread) << 40) | ++buffer.next;
  parent_ = buffer.open_ids.empty() ? 0 : buffer.open_ids.back();
  unit_ = unit != kInheritUnit ? unit
          : buffer.open_units.empty() ? 0
                                      : buffer.open_units.back();
  buffer.open_ids.push_back(id_);
  buffer.open_units.push_back(unit_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local_buffer();
  buffer.records.push_back(
      Record{name_, id_, parent_, unit_, start_ns_, end, buffer.thread});
  buffer.open_ids.pop_back();
  buffer.open_units.pop_back();
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Record> all;
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

std::map<std::string, NameStats> stats_under(const std::vector<Record>& spans,
                                             std::uint64_t root_id) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<double> covered_us(spans.size(), 0.0);
  for (const Record& r : spans) {
    const auto parent = index.find(r.parent);
    if (parent != index.end()) {
      covered_us[parent->second] += 1e-3 * static_cast<double>(r.end_ns - r.start_ns);
    }
  }

  // 1 = inside the subtree, 2 = outside, 0 = not yet known.
  std::vector<char> state(spans.size(), 0);
  auto inside = [&](std::size_t i) {
    std::vector<std::size_t> chain;
    char verdict = 2;
    for (std::size_t at = i;;) {
      if (state[at] != 0) {
        verdict = state[at];
        break;
      }
      chain.push_back(at);
      if (spans[at].id == root_id) {
        verdict = 1;
        break;
      }
      const auto parent = index.find(spans[at].parent);
      if (parent == index.end()) break;
      at = parent->second;
    }
    for (const std::size_t c : chain) state[c] = verdict;
    return verdict == 1;
  };

  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside(i)) continue;
    const double us = 1e-3 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    NameStats& s = out[spans[i].name];
    ++s.count;
    s.total_us += us;
    s.self_us += us - covered_us[i];
  }
  return out;
}

std::uint64_t last_id(const std::vector<Record>& spans, const char* name) {
  std::uint64_t id = 0;
  std::int64_t latest = 0;
  for (const Record& r : spans) {
    if (std::string_view(r.name) == name && (id == 0 || r.start_ns > latest)) {
      id = r.id;
      latest = r.start_ns;
    }
  }
  return id;
}

bool write_json(const std::vector<Record>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  for (const Record& r : spans) {
    if (origin == 0 || r.start_ns < origin) origin = r.start_ns;
  }
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"unit\": %llu, \"thread\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent), r.name,
                 static_cast<unsigned long long>(r.unit), r.thread,
                 1e-3 * static_cast<double>(r.start_ns - origin),
                 1e-3 * static_cast<double>(r.end_ns - origin));
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace e2e::trace
