// Campaign driver: draw N seeded scenarios, run every metamorphic
// invariant over each, shrink failures to minimal repro JSONs, and
// optionally emit a BENCH-format summary. Exit status is non-zero when
// any invariant failed (repro files are written first).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "campaign/campaign.h"
#include "util/logging.h"

#include "cli_flags.h"

using namespace sleuth;

namespace {

/** Upper bounds of the count flags. */
constexpr int64_t kMaxScenarios = 1'000'000;
constexpr int64_t kMaxShrinkRuns = 1'000'000;

void
usage()
{
    std::printf(
        "usage: campaign_run [options]\n"
        "  --scenarios N    scenarios to draw (default 20)\n"
        "  --seed S         master seed (default 1)\n"
        "  --mutation M     test-only invariant mutation\n"
        "  --no-shrink      skip failing-scenario minimization\n"
        "  --shrink-runs N  per-failure shrink budget (default 140)\n"
        "  --repro-dir DIR  write shrunk repros as DIR/repro-*.json\n"
        "  --bench-out FILE write BENCH-format JSON summary\n"
        "  --list           list registered invariants and exit\n");
}

} // namespace

int
main(int argc, char **argv)
{
    campaign::CampaignParams params;
    std::string repro_dir;
    std::string bench_out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                util::fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--scenarios")
            params.scenarios = static_cast<size_t>(
                cli::parse<int64_t>(arg, next(), 1, kMaxScenarios));
        else if (arg == "--seed")
            params.seed = cli::parse<uint64_t>(
                arg, next(), 0, std::numeric_limits<uint64_t>::max());
        else if (arg == "--mutation")
            params.mutation = next();
        else if (arg == "--no-shrink")
            params.shrink = false;
        else if (arg == "--shrink-runs")
            params.maxShrinkRuns = static_cast<size_t>(
                cli::parse<int64_t>(arg, next(), 0, kMaxShrinkRuns));
        else if (arg == "--repro-dir")
            repro_dir = next();
        else if (arg == "--bench-out")
            bench_out = next();
        else if (arg == "--list") {
            for (const campaign::Invariant &inv :
                 campaign::invariantRegistry())
                std::printf("%-24s %s\n", inv.name.c_str(),
                            inv.description.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            util::fatal("unknown argument '", arg, "'");
        }
    }
    if (!params.mutation.empty()) {
        const auto &known = campaign::knownMutations();
        if (std::find(known.begin(), known.end(), params.mutation) ==
            known.end())
            util::fatal("unknown mutation '", params.mutation, "'");
    }

    auto t0 = std::chrono::steady_clock::now();
    campaign::CampaignReport report = campaign::runCampaign(params);
    double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    for (const auto &[name, counts] : report.perInvariant())
        std::printf("%-24s pass=%zu fail=%zu\n", name.c_str(),
                    counts.first, counts.second);
    std::printf("campaign: %zu scenarios (%zu degenerate), %zu checks,"
                " %zu failures, %.1fs\n",
                report.outcomes.size(),
                report.degenerateScenarios(), report.checksRun(),
                report.failures(), elapsed);

    if (!repro_dir.empty()) {
        for (size_t i = 0; i < report.repros.size(); ++i) {
            std::string path = repro_dir + "/repro-" +
                               report.repros[i].invariant + "-" +
                               std::to_string(i) + ".json";
            std::ofstream out(path);
            if (!out)
                util::fatal("cannot write ", path);
            out << toJson(report.repros[i]).dump(2) << "\n";
            std::printf("wrote %s\n", path.c_str());
        }
    }
    if (!bench_out.empty()) {
        std::ofstream out(bench_out);
        if (!out)
            util::fatal("cannot write ", bench_out);
        out << report.benchJson(elapsed).dump(2) << "\n";
    }
    return report.allPassed() ? 0 : 1;
}
