// Admission sweep: flash-write savings of the DRAM admission tier.
//
// Companion to the DRAM admission tier (DESIGN.md "DRAM admission tier"):
// sweeps DRAM budget x admission policy on the medium-locality workload
// and reports the paper's device-wear lens — flash writes per request —
// against the hit ratio each configuration sustains. The claim under
// test: a learned (flashiness) or budgeted (write-credit) policy cuts
// flash writes by >= 30% while staying within 1 point of the admit-all
// hit ratio. The bench exits nonzero if no swept configuration achieves
// that, so CI can hold the line.
#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "common/units.h"
#include "figure_common.h"
#include "telemetry/bench_json.h"

using namespace reo;
using namespace reo::bench;

namespace {

double CpuSeconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double Metric(const RunReport& r, const std::string& name) {
  const auto* e = r.telemetry.Find(name);
  return e != nullptr ? e->value : 0.0;
}

/// Sums a per-device flash metric ("writes", "bytes_written", ...).
double SumDevices(const RunReport& r, size_t num_devices, const char* leaf) {
  double total = 0.0;
  for (size_t d = 0; d < num_devices; ++d) {
    total += Metric(r, "flash.dev" + std::to_string(d) + "." + leaf);
  }
  return total;
}

double WritesPerOp(const RunReport& r, size_t num_devices) {
  return r.total.requests > 0
             ? SumDevices(r, num_devices, "writes") /
                   static_cast<double>(r.total.requests)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // --bench-out PATH: emit a BENCH_serve.json report (bench_json.h) for
  // the flashiness run at the middle DRAM budget, same schema as
  // reo_loadgen / openloop_latency, so bench_validate can lint it.
  const char* bench_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--bench-out") && i + 1 < argc) {
      bench_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s (admit_sweep takes --bench-out)\n",
                   argv[i]);
      return 2;
    }
  }

  MediSynConfig wl = MediumLocalityConfig();
  wl.num_requests = 20000;  // trimmed sweep; shapes are stable
  auto trace = GenerateMediSyn(wl);

  const Config base{"Reo-20%", ProtectionMode::kReo, 0.20};
  const size_t kNumDevices = 5;

  // DRAM budgets as fractions of the flash cache's *physical* footprint
  // (payloads are scaled by BenchScaleShift, so the staged bytes are too).
  uint64_t flash_physical = static_cast<uint64_t>(
      0.10 * static_cast<double>(trace.catalog.TotalBytes()));
  flash_physical >>= BenchScaleShift();
  const std::vector<double> dram_fracs{0.10, 0.25, 0.50};

  std::printf(
      "Admission sweep: DRAM budget x policy (medium workload, cache 10%%,"
      " Reo-20%%)\n\n");
  std::printf("%-12s %9s %8s %9s %10s %10s %9s %9s\n", "Policy", "DRAM",
              "Hit(%)", "DramHit%", "FlashW/op", "dWrites", "Graduated",
              "Dropped");

  // Control: tier off entirely. Every later row compares against the
  // admit-all row at its own DRAM size, but the off row pins the
  // pre-tier baseline (PR 6 behaviour) for regression eyes.
  double cpu_before = CpuSeconds();
  {
    SimulationConfig sim = MakeSimConfig(base, 0.10);
    CacheSimulator s(trace, sim);
    RunReport r = s.Run();
    std::printf("%-12s %9s %8.1f %9s %10.3f %10s %9s %9s\n", "off", "0",
                r.total.HitRatio() * 100, "-", WritesPerOp(r, kNumDevices),
                "-", "-", "-");
  }

  bool acceptance_met = false;
  const size_t report_idx = dram_fracs.size() / 2;
  for (size_t fi = 0; fi < dram_fracs.size(); ++fi) {
    uint64_t dram_bytes = std::max<uint64_t>(
        kMiB, static_cast<uint64_t>(dram_fracs[fi] *
                                    static_cast<double>(flash_physical)));

    // admit-all first: it sets this DRAM size's write baseline and the
    // observed flash-write rate the credit policy budgets against.
    SimulationConfig all_cfg = MakeSimConfig(base, 0.10);
    all_cfg.admission.dram_bytes = dram_bytes;
    all_cfg.admission.policy = AdmissionPolicyKind::kAdmitAll;
    CacheSimulator all_sim(trace, all_cfg);
    RunReport all_r = all_sim.Run();
    double all_wpo = WritesPerOp(all_r, kNumDevices);
    double all_hit = all_r.total.HitRatio() * 100;
    // The credit bucket pays only for tier-caused writes (graduations and
    // write-throughs), so budget against the graduation byte rate the
    // admit-all arm observed — 40% of it makes the bucket bind by
    // construction.
    double virtual_secs = ToSec(all_r.total.end - all_r.total.start);
    double write_bytes_per_sec =
        virtual_secs > 0 ? Metric(all_r, "admit.graduated_bytes") / virtual_secs
                         : 0.0;

    for (AdmissionPolicyKind policy :
         {AdmissionPolicyKind::kAdmitAll, AdmissionPolicyKind::kFlashiness,
          AdmissionPolicyKind::kWriteCredit}) {
      RunReport r;
      if (policy == AdmissionPolicyKind::kAdmitAll) {
        r = std::move(all_r);
      } else {
        SimulationConfig sim = MakeSimConfig(base, 0.10);
        sim.admission.dram_bytes = dram_bytes;
        sim.admission.policy = policy;
        if (policy == AdmissionPolicyKind::kWriteCredit) {
          // Budget at 40% of this DRAM size's observed admit-all write
          // rate: binding by construction, so the bucket actually gates.
          sim.admission.flash_write_budget_bps = std::max<uint64_t>(
              1, static_cast<uint64_t>(0.4 * write_bytes_per_sec));
        }
        CacheSimulator s(trace, sim);
        r = s.Run();
      }

      double wpo = WritesPerOp(r, kNumDevices);
      double hit = r.total.HitRatio() * 100;
      double dram_total = Metric(r, "dram.hits") + Metric(r, "dram.misses");
      double dram_hit =
          dram_total > 0 ? Metric(r, "dram.hits") / dram_total * 100 : 0.0;
      double delta = all_wpo > 0 ? (wpo - all_wpo) / all_wpo * 100 : 0.0;
      // 20 digits of a 64-bit count + "KiB" + NUL.
      char dram_label[24], delta_label[16];
      std::snprintf(dram_label, sizeof(dram_label), "%lluKiB",
                    static_cast<unsigned long long>(dram_bytes / kKiB));
      std::snprintf(delta_label, sizeof(delta_label), "%+.1f%%", delta);
      std::printf("%-12s %9s %8.1f %9.1f %10.3f %10s %9.0f %9.0f\n",
                  std::string(to_string(policy)).c_str(), dram_label, hit,
                  dram_hit, wpo,
                  policy == AdmissionPolicyKind::kAdmitAll ? "base"
                                                           : delta_label,
                  Metric(r, "admit.graduated"), Metric(r, "admit.dropped"));

      if (policy != AdmissionPolicyKind::kAdmitAll && wpo <= all_wpo * 0.7 &&
          hit >= all_hit - 1.0) {
        acceptance_met = true;
      }

      if (bench_out != nullptr && fi == report_idx &&
          policy == AdmissionPolicyKind::kFlashiness) {
        const WindowMetrics& m = r.total;
        BenchServeReport report;
        report.bench = "admit_sweep";
        char desc[120];
        std::snprintf(desc, sizeof(desc),
                      "medium workload, cache 10%%, Reo-20%%, dram %s,"
                      " admission flashiness (simulated)",
                      dram_label);
        report.workload = desc;
        report.ops = m.requests;
        report.wall_seconds = ToSec(m.end - m.start);  // simulated time
        report.cpu_seconds = CpuSeconds() - cpu_before;
        report.throughput_ops_per_sec =
            report.wall_seconds > 0
                ? static_cast<double>(m.requests) / report.wall_seconds
                : 0.0;
        report.p50_us = m.latency_us.Percentile(0.50);
        report.p99_us = m.latency_us.Percentile(0.99);
        report.p999_us = m.latency_us.Percentile(0.999);
        report.bytes_per_op =
            m.requests > 0 ? static_cast<double>(m.bytes) /
                                 static_cast<double>(m.requests)
                           : 0.0;
        report.allocs_per_op = -1.0;  // not measured in the simulator
        Status wf = WriteBenchServeJson(bench_out, report);
        if (!wf.ok()) {
          std::fprintf(stderr, "bench report write failed: %s\n",
                       wf.to_string().c_str());
          return 1;
        }
        std::printf("  [report -> %s]\n", bench_out);
      }
    }
  }

  if (!acceptance_met) {
    std::fprintf(stderr,
                 "ADMIT SWEEP FAILED: no policy/DRAM point cut flash"
                 " writes/op by >= 30%% within 1 hit-ratio point of"
                 " admit-all\n");
    return 1;
  }
  std::printf(
      "\nAt least one learned/budgeted point cuts flash writes/op by >= 30%%"
      "\nwhile holding the hit ratio within 1 point of admit-all.\n");
  return 0;
}
