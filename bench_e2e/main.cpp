// bench_e2e — end-to-end benchmark of the qaoaml system, one workload per
// process (so peak memory is per workload).
//
//   bench_e2e --workload paper_pipeline|large_state|serve_predict|serve_mixed
//             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//             [--out FILE] [--tmp DIR] [--smoke]
//
// Prints every metric as `name value unit`, then `attempted`, `failed`
// and `correct` lines.  --out writes the same as JSON together with the
// host fingerprint; --spans writes the recorded spans of a traced run.
// Scratch files go under --tmp (default $TMPDIR, else /tmp) and are
// removed before exit.  BENCHMARK.json and run.py next to this file
// define how the numbers are gated.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench_e2e.hpp"
#include "common/cli.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace {

using e2e::Metric;
using e2e::Options;
using e2e::Report;

// Per-layer metrics of layers only some workloads enter.  A workload that
// bypasses a layer reports 0 for it (no work was done there); none of
// these is a time, so a 0 never poses as a measured duration.
const Metric kBypassableLayerMetrics[] = {
    {"mem.triad_gbs", 0.0, "GB/s"},
    {"sim.q24.eff_passes", 0.0, "passes"},
    {"sim.q24.roof_pct", 0.0, "%"},
    {"ckpt.bytes_per_unit.corpus", 0.0, "bytes"},
    {"ckpt.bytes_per_unit.table1", 0.0, "bytes"},
    {"ckpt.resume_scan_pct", 0.0, "%"},
    {"ckpt.merge_pct", 0.0, "%"},
    {"serve.codec_pct", 0.0, "%"},
    {"serve.compute_pct", 0.0, "%"},
    {"serve.wait_pct", 0.0, "%"},
    {"serve.tail_ratio", 0.0, "x"},
    {"serve.batch_mean", 0.0, "count"},
    {"serve.max_batch", 0.0, "count"},
};

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "paper_pipeline|large_state|serve_predict|serve_mixed\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans FILE] [--out FILE] [--tmp DIR] [--smoke]\n");
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_e2e: %s needs a value\n", arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      ok = qaoaml::cli::to_u64(value, options.seed);
    } else if (arg == "--seconds") {
      ok = qaoaml::cli::to_double(value, options.seconds) &&
           options.seconds > 0.0 && options.seconds <= 3600.0;
    } else if (arg == "--trace") {
      const std::string flag = value;
      ok = flag == "0" || flag == "1";
      options.trace = flag == "1";
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else if (arg == "--out") {
      options.out_path = value;
    } else if (arg == "--tmp") {
      options.tmp_root = value;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option %s\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bench_e2e: invalid value '%s' for %s\n", value,
                   arg.c_str());
      return false;
    }
  }
  return !options.workload.empty();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool write_out(const Options& options, const Report& report,
               const e2e::HostFingerprint& host) {
  std::ofstream os(options.out_path);
  os.precision(17);
  os << "{\n  \"schema\": \"qaoaml-bench-e2e-v1\",\n  \"workload\": "
     << json_string(options.workload) << ",\n  \"seed\": " << options.seed
     << ",\n  \"seconds\": " << options.seconds
     << ",\n  \"trace\": " << (options.trace ? "true" : "false")
     << ",\n  \"host\": " << e2e::to_json(host) << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    os << (i ? ",\n" : "\n") << "    " << json_string(m.name)
       << ": {\"value\": " << m.value << ", \"unit\": " << json_string(m.unit)
       << "}";
  }
  os << "\n  },\n  \"attempted\": " << report.attempted
     << ",\n  \"failed\": " << report.failed << ",\n  \"correct\": "
     << (report.failed_checks.empty() ? "true" : "false")
     << ",\n  \"failed_checks\": [";
  for (std::size_t i = 0; i < report.failed_checks.size(); ++i) {
    os << (i ? ", " : "") << json_string(report.failed_checks[i]);
  }
  os << "]\n}\n";
  return os.good();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }
  if (options.tmp_root.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    options.tmp_root = tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
  }

  const e2e::HostFingerprint host = e2e::host_fingerprint();
  std::printf("host %s\n", e2e::to_json(host).c_str());
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);

  Report report;
  try {
    if (options.workload == "paper_pipeline") {
      e2e::run_paper_pipeline(options, report);
    } else if (options.workload == "large_state") {
      e2e::run_large_state(options, report);
    } else if (options.workload == "serve_predict") {
      e2e::run_serve(options, /*mixed=*/false, report);
    } else if (options.workload == "serve_mixed") {
      e2e::run_serve(options, /*mixed=*/true, report);
    } else {
      std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                   options.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  report.add("peak_rss_mb", e2e::peak_rss_mib(), "MiB");
  report.add("fail_frac",
             report.attempted > 0 ? static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted)
                                  : 1.0,
             "ratio");
  if (options.trace) {
    for (const Metric& bypassed : kBypassableLayerMetrics) {
      bool reported = false;
      for (const Metric& m : report.metrics) reported |= m.name == bypassed.name;
      if (!reported) report.metrics.push_back(bypassed);
    }
  }

  for (const Metric& m : report.metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& why : report.failed_checks) {
    std::printf("# CHECK FAILED: %s\n", why.c_str());
  }
  std::printf("attempted %" PRId64 "\nfailed %" PRId64 "\ncorrect %s\n",
              report.attempted, report.failed,
              report.failed_checks.empty() ? "true" : "false");

  int status = 0;
  if (options.trace && !options.spans_path.empty() &&
      !e2e::trace::write_json(e2e::trace::collect(), options.spans_path)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", options.spans_path.c_str());
    status = 1;
  }
  if (!options.out_path.empty() && !write_out(options, report, host)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", options.out_path.c_str());
    status = 1;
  }
  return status;
}
