// Design-space explorer throughput probe: a few-hundred-thousand-candidate
// heterogeneous space (per-chiplet node assignment over three nodes, four
// packagings, up to ten chiplets) is enumerated, pruned and evaluated four
// ways — the scalar per-candidate reference path, the SoA kernel path
// serial, the kernel path parallel, and the space as a design_space
// study through run_studies (serial), the study-compiler path actuaryd
// serves — with every ranking checked bit-identical against the
// reference (and the compiled payload against a direct run_study)
// before any timing is reported.  Like the other bench_* probes this has no Google-Benchmark
// dependency; bench/run_benches.sh runs it and collects
// BENCH_design_space.json.
//
//   bench_design_space [output.json]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/actuary.h"
#include "explore/design_space.h"
#include "explore/study.h"
#include "explore/study_json.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A deliberately oversized workload: 2,000 mm^2 of 5 nm-equivalent
/// logic.  Coarse-node assignments inflate slice areas past the reticle
/// field, so a healthy share of the space is pruned before evaluation —
/// the realistic shape of heterogeneous exploration.
chiplet::explore::DesignSpaceConfig build_space() {
    chiplet::explore::DesignSpaceConfig config;
    config.module_area_mm2 = 2000.0;
    config.reference_node = "5nm";
    config.nodes = {"5nm", "7nm", "14nm"};
    config.chiplet_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    config.packagings = {"SoC", "MCM", "InFO", "2.5D"};
    config.quantities = {2e6};
    config.d2d_fraction = 0.10;
    config.top_k = 16;
    return config;
}

/// The determinism contract measured at the surface: identical space
/// accounting and a bit-identical top-K ranking, whatever the path or
/// pool size.
bool identical_results(const chiplet::explore::DesignSpaceResult& a,
                       const chiplet::explore::DesignSpaceResult& b) {
    bool same = a.total_candidates == b.total_candidates &&
                a.pruned == b.pruned && a.evaluated == b.evaluated &&
                a.best.size() == b.best.size();
    for (std::size_t i = 0; same && i < a.best.size(); ++i) {
        same = a.best[i].index == b.best[i].index &&
               a.best[i].re_per_unit == b.best[i].re_per_unit &&
               a.best[i].nre_per_unit == b.best[i].nre_per_unit;
    }
    return same;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace chiplet;
    using util::ThreadPool;

    const std::string out_path =
        argc > 1 ? argv[1] : std::string("BENCH_design_space.json");
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    unsigned threads = hardware;
    if (const char* env = std::getenv("CHIPLET_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0) threads = static_cast<unsigned>(parsed);
    }

    const core::ChipletActuary actuary;
    const explore::DesignSpaceConfig config = build_space();
    const std::uint64_t space = explore::design_space_size(actuary, config);

    // Scalar per-candidate reference: the pre-kernel evaluation path the
    // SoA lowering must reproduce bit-for-bit and outrun.
    ThreadPool::set_global_threads(1);
    auto start = Clock::now();
    const explore::DesignSpaceResult reference =
        explore::explore_design_space_reference(actuary, config);
    const double reference_s = seconds_since(start);
    const double reference_cps =
        reference_s > 0.0 ? static_cast<double>(space) / reference_s : 0.0;

    // Kernel path: one untimed warm-up pass, then serial and parallel.
    (void)explore::explore_design_space(actuary, config);
    start = Clock::now();
    const explore::DesignSpaceResult serial =
        explore::explore_design_space(actuary, config);
    const double serial_s = seconds_since(start);

    // Server path: the same space as one design_space study through the
    // study compiler (run_studies), serial like the timing above so the
    // two rates compare directly.  Best of five ~25 ms samples, so a
    // preempted sample does not read as a regression.
    explore::StudySpec spec;
    spec.name = "design_space";
    spec.config = config;
    const std::vector<explore::StudySpec> batch{spec};
    std::vector<explore::StudyResult> graph;
    double graph_s = 0.0;
    for (int sample = 0; sample < 5; ++sample) {
        start = Clock::now();
        graph = explore::run_studies(actuary, batch);
        const double wall = seconds_since(start);
        if (sample == 0 || wall < graph_s) graph_s = wall;
    }

    ThreadPool::set_global_threads(threads);
    start = Clock::now();
    const explore::DesignSpaceResult parallel =
        explore::explore_design_space(actuary, config);
    const double parallel_s = seconds_since(start);

    const bool identical = identical_results(reference, serial) &&
                           identical_results(reference, parallel);
    if (!identical) {
        std::cerr << "error: kernel path diverges from the scalar reference\n";
    }
    JsonDiffOptions exact;
    exact.tolerance = 0.0;
    exact.ignore_keys = {"meta"};  // wall time and counters differ per run
    const bool graph_identical =
        json_diff(explore::to_json(graph.front()),
                  explore::to_json(explore::run_study(actuary, spec)), exact)
            .empty();
    if (!graph_identical) {
        std::cerr << "error: the run_studies payload diverges from run_study\n";
    }

    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    const double serial_cps =
        serial_s > 0.0 ? static_cast<double>(space) / serial_s : 0.0;
    const double parallel_cps =
        parallel_s > 0.0 ? static_cast<double>(space) / parallel_s : 0.0;
    const double kernel_over_reference =
        reference_cps > 0.0 ? serial_cps / reference_cps : 0.0;
    const double graph_cps =
        graph_s > 0.0 ? static_cast<double>(space) / graph_s : 0.0;

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "error: cannot open '" << out_path << "' for writing\n";
        return 2;
    }
    json << "{\n"
         << "  \"bench\": \"design_space\",\n"
         << "  \"hardware_concurrency\": " << hardware << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"total_candidates\": " << space << ",\n"
         << "  \"pruned\": " << serial.pruned << ",\n"
         << "  \"pruned_fraction\": " << serial.pruned_fraction() << ",\n"
         << "  \"evaluated\": " << serial.evaluated << ",\n"
         << "  \"top_k\": " << serial.best.size() << ",\n"
         << "  \"reference_wall_s\": " << reference_s << ",\n"
         << "  \"reference_candidates_per_s\": " << reference_cps << ",\n"
         << "  \"serial_wall_s\": " << serial_s << ",\n"
         << "  \"parallel_wall_s\": " << parallel_s << ",\n"
         << "  \"serial_candidates_per_s\": " << serial_cps << ",\n"
         << "  \"parallel_candidates_per_s\": " << parallel_cps << ",\n"
         << "  \"kernel_over_reference\": " << kernel_over_reference << ",\n"
         << "  \"graph_wall_s\": " << graph_s << ",\n"
         << "  \"graph_candidates_per_s\": " << graph_cps << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
         << "  \"graph_bit_identical\": "
         << (graph_identical ? "true" : "false") << "\n"
         << "}\n";
    json.close();
    if (!json) {
        std::cerr << "error: failed writing '" << out_path << "'\n";
        return 2;
    }

    std::cout << "design space: " << space << " candidates ("
              << serial.pruned << " pruned, "
              << serial.evaluated << " evaluated)\n"
              << "reference " << reference_s << " s (" << reference_cps
              << " cand/s)\n";
    std::cout << "kernel serial "
              << serial_s << " s, parallel(" << threads << ") " << parallel_s
              << " s, speedup " << speedup << ", kernel/reference "
              << kernel_over_reference
              << (identical ? "" : "  [RESULTS DIVERGE]") << "\n"
              << "run_studies " << graph_s << " s (" << graph_cps
              << " cand/s)" << (graph_identical ? "" : "  [RESULTS DIVERGE]")
              << "\n"
              << "wrote " << out_path << "\n";
    return identical && graph_identical ? 0 : 1;
}
