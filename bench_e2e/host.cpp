#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/parallel.hpp"
#include "quantum/dispatch.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_E2E_CXX_FLAGS
#define BENCH_E2E_CXX_FLAGS "unknown"
#endif

namespace e2e {
namespace {

std::string read_line(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  return line;
}

/// "2048K" / "300M" -> bytes; 0 when unparseable.
std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && text[i] == 'K') value <<= 10;
  if (i < text.size() && text[i] == 'M') value <<= 20;
  if (i < text.size() && text[i] == 'G') value <<= 30;
  return value;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

HostFingerprint host_fingerprint() {
  HostFingerprint host;
  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  host.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));

  // L2 of cpu0, and the last level summed over distinct sharing groups.
  const std::filesystem::path cpus = "/sys/devices/system/cpu";
  int llc_level = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cpus / "cpu0" / "cache", ec)) {
    if (entry.path().filename().string().rfind("index", 0) != 0) continue;
    const int level = std::atoi(read_line(entry.path() / "level").c_str());
    if (read_line(entry.path() / "type") == "Instruction") continue;
    if (level == 2) host.l2_bytes = parse_cache_size(read_line(entry.path() / "size"));
    llc_level = std::max(llc_level, level);
  }
  std::set<std::string> groups;
  for (const auto& cpu : std::filesystem::directory_iterator(cpus, ec)) {
    const std::string name = cpu.path().filename().string();
    if (name.rfind("cpu", 0) != 0 || name.size() < 4 ||
        name[3] < '0' || name[3] > '9') {
      continue;
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(cpu.path() / "cache", ec)) {
      if (std::atoi(read_line(entry.path() / "level").c_str()) != llc_level ||
          read_line(entry.path() / "type") == "Instruction") {
        continue;
      }
      if (groups.insert(read_line(entry.path() / "shared_cpu_list")).second) {
        host.llc_bytes += parse_cache_size(read_line(entry.path() / "size"));
      }
    }
  }

  host.simd_tier = qaoaml::quantum::to_string(qaoaml::quantum::active_simd_tier());
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = BENCH_E2E_BUILD_TYPE;
  host.cxx_flags = BENCH_E2E_CXX_FLAGS;
  host.threads = qaoaml::default_thread_count();
  return host;
}

std::string to_json(const HostFingerprint& host) {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(host.cpu_model)
     << "\", \"nproc\": " << host.nproc << ", \"l2_bytes\": " << host.l2_bytes
     << ", \"llc_bytes\": " << host.llc_bytes << ", \"simd_tier\": \""
     << host.simd_tier << "\", \"compiler\": \"" << json_escape(host.compiler)
     << "\", \"build_type\": \"" << json_escape(host.build_type)
     << "\", \"cxx_flags\": \"" << json_escape(host.cxx_flags)
     << "\", \"threads\": " << host.threads << "}";
  return os.str();
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
