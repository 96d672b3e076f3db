/**
 * @file
 * Fig 17 — the three cluster schedulers on the accelerated Day-D2
 * cluster (20% of traffic on the successor models; accelerated servers
 * T3-T10 with Table II availabilities):
 * heterogeneity-oblivious (NH), greedy [8,9], and Hercules (Eq. 1-3).
 *
 * Reproduction targets: greedy saves 75.8% (peak) / 67.4% (avg)
 * capacity and 50.8% / 42.7% power over NH; Hercules saves a further
 * 47.7% / 22.8% capacity and 23.7% / 9.1% power over greedy.
 */

#include "bench/bench_common.h"
#include "cluster/evolution.h"
#include "util/table.h"

using namespace hercules;

int
main()
{
    bench::banner("Figure 17",
                  "NH vs greedy vs Hercules cluster scheduling "
                  "(Day-D2, accelerated cluster)");

    core::EfficiencyTable table = bench::loadOrProfile();
    auto services = cluster::defaultEvolutionServices();
    // Size the service peaks against the simulated fleet (see
    // bench_common.h) so Day-D1 fits the CPU-only cluster comfortably.
    bench::scaleEvolutionServices(services, table);
    auto workloads = cluster::evolutionWorkloads(services, 0.2);
    auto models = cluster::evolutionModels(services, 0.2);
    auto problem = cluster::ProvisionProblem::fromTable(
        table, hw::allServerTypes(), models);

    cluster::ClusterManagerOptions copt;
    cluster::NhProvisioner nh(11);
    cluster::GreedyProvisioner greedy;
    cluster::HerculesProvisioner hercules;

    auto rn = cluster::runCluster(problem, workloads, nh, copt);
    auto rg = cluster::runCluster(problem, workloads, greedy, copt);
    auto rh = cluster::runCluster(problem, workloads, hercules, copt);

    std::printf("-- hourly capacity and provisioned power --\n");
    TablePrinter t({"Hour", "NH srv", "NH kW", "Greedy srv", "Greedy kW",
                    "Hercules srv", "Hercules kW"});
    for (size_t i = 0; i < rn.intervals.size(); i += 2) {
        t.addRow({fmtDouble(rn.intervals[i].t_hours, 1),
                  std::to_string(rn.intervals[i].activated_servers),
                  fmtDouble(rn.intervals[i].provisioned_power_w / 1e3, 1),
                  std::to_string(rg.intervals[i].activated_servers),
                  fmtDouble(rg.intervals[i].provisioned_power_w / 1e3, 1),
                  std::to_string(rh.intervals[i].activated_servers),
                  fmtDouble(rh.intervals[i].provisioned_power_w / 1e3,
                            1)});
    }
    t.print();

    auto saving = [](double better, double worse) {
        return worse > 0 ? (1.0 - better / worse) : 0.0;
    };
    std::printf("\n-- savings --\n");
    TablePrinter s({"Comparison", "Capacity peak", "Capacity avg",
                    "Power peak", "Power avg", "Paper (peak)"});
    s.addRow({"Greedy vs NH",
              fmtPercent(saving(rg.peak_servers, rn.peak_servers), 1),
              fmtPercent(saving(rg.avg_servers, rn.avg_servers), 1),
              fmtPercent(saving(rg.peak_power_w, rn.peak_power_w), 1),
              fmtPercent(saving(rg.avg_power_w, rn.avg_power_w), 1),
              "75.8% cap / 50.8% pow"});
    s.addRow({"Hercules vs Greedy",
              fmtPercent(saving(rh.peak_servers, rg.peak_servers), 1),
              fmtPercent(saving(rh.avg_servers, rg.avg_servers), 1),
              fmtPercent(saving(rh.peak_power_w, rg.peak_power_w), 1),
              fmtPercent(saving(rh.avg_power_w, rg.avg_power_w), 1),
              "47.7% cap / 23.7% pow"});
    s.print();
    return 0;
}
