/**
 * @file
 * Fig 16 — model evolution: traffic migrates linearly from the DLRM
 * workloads to the higher-complexity DIN / DIEN / MT-WnD models.
 *  (a) the synthetic mix per update cycle;
 *  (b) peak/average provisioned power on the CPU-only cluster vs the
 *      accelerated cluster across the evolution;
 *  (c)(d) Day-D1 vs Day-D2 capacity snapshots (20% of traffic moved).
 *
 * Reproduction targets: on the CPU-only cluster, D2 needs ~2.27x the
 * capacity and ~1.77x the power of D1 at peak; deploying the
 * accelerated servers recovers 22-52% of peak provisioned power during
 * the evolution.
 */

#include "bench/bench_common.h"
#include "cluster/evolution.h"
#include "util/table.h"

using namespace hercules;

int
main()
{
    bench::banner("Figure 16", "Model evolution and cluster capacity");

    core::EfficiencyTable table = bench::loadOrProfile();
    auto services = cluster::defaultEvolutionServices();
    // Size the service peaks against the simulated fleet (see
    // bench_common.h) so Day-D1 fits the CPU-only cluster comfortably.
    bench::scaleEvolutionServices(services, table);

    const std::vector<hw::ServerType> cpu_only = {hw::ServerType::T1,
                                                  hw::ServerType::T2};
    const std::vector<hw::ServerType> accelerated =
        hw::allServerTypes();

    cluster::ClusterManagerOptions copt;
    cluster::HerculesProvisioner policy;

    std::printf("-- Fig 16(a)(b): evolution stages --\n");
    // The CPU-only column is a *projection* (unbounded T1/T2 supply),
    // exactly as the paper projects the 5.4x capacity / 3.54x power
    // growth the baseline fleet would need by the end of evolution.
    TablePrinter t({"Stage", "Legacy %", "CPU-only proj. peak kW",
                    "CPU-only proj. srv", "Accel peak kW",
                    "Accel avg kW", "Peak saving vs proj."});
    std::vector<double> stages = bench::fastMode()
                                     ? std::vector<double>{0.0, 0.5, 1.0}
                                     : std::vector<double>{0.0, 0.2, 0.4,
                                                           0.6, 0.8, 1.0};
    double proj_first_peak_kw = 0.0, proj_last_peak_kw = 0.0;
    int proj_first_srv = 0, proj_last_srv = 0;
    for (double s : stages) {
        auto workloads = cluster::evolutionWorkloads(services, s);
        auto models = cluster::evolutionModels(services, s);
        auto p_proj = cluster::ProvisionProblem::fromTable(
            table, cpu_only, models, {1'000'000, 1'000'000});
        auto p_acc = cluster::ProvisionProblem::fromTable(
            table, accelerated, models);
        auto r_proj = cluster::runCluster(p_proj, workloads, policy, copt);
        auto r_acc = cluster::runCluster(p_acc, workloads, policy, copt);
        if (s == stages.front()) {
            proj_first_peak_kw = r_proj.peak_power_w / 1e3;
            proj_first_srv = r_proj.peak_servers;
        }
        if (s == stages.back()) {
            proj_last_peak_kw = r_proj.peak_power_w / 1e3;
            proj_last_srv = r_proj.peak_servers;
        }
        t.addRow({fmtDouble(s, 1), fmtPercent(1.0 - s, 0),
                  fmtDouble(r_proj.peak_power_w / 1e3, 1),
                  std::to_string(r_proj.peak_servers),
                  fmtDouble(r_acc.peak_power_w / 1e3, 1),
                  fmtDouble(r_acc.avg_power_w / 1e3, 1),
                  fmtPercent(1.0 - r_acc.peak_power_w /
                                       std::max(r_proj.peak_power_w, 1.0),
                             1)});
    }
    t.print();
    std::printf("end-of-evolution projection on CPU-only servers: "
                "capacity x%.2f, power x%.2f\n(paper projects 5.4x / "
                "3.54x); accelerated-cluster saving over the projection "
                "is\nthe Fig 16(b) story (paper: 22-52%% at peak).\n\n",
                static_cast<double>(proj_last_srv) /
                    std::max(proj_first_srv, 1),
                proj_last_peak_kw / std::max(proj_first_peak_kw, 1e-9));

    // ---- (c)(d) Day-D1 vs Day-D2 snapshots on the CPU-only cluster ---
    std::printf("-- Fig 16(c)(d): Day-D1 (stage 0) vs Day-D2 (stage 0.2) "
                "on the CPU-only cluster --\n");
    auto w1 = cluster::evolutionWorkloads(services, 0.0);
    auto w2 = cluster::evolutionWorkloads(services, 0.2);
    auto p1 = cluster::ProvisionProblem::fromTable(
        table, cpu_only, cluster::evolutionModels(services, 0.0));
    auto p2 = cluster::ProvisionProblem::fromTable(
        table, cpu_only, cluster::evolutionModels(services, 0.2));
    auto r1 = cluster::runCluster(p1, w1, policy, copt);
    auto r2 = cluster::runCluster(p2, w2, policy, copt);

    TablePrinter td({"Hour", "D1 servers", "D1 kW", "D2 servers",
                     "D2 kW"});
    for (size_t i = 0; i < r1.intervals.size(); i += 4) {
        td.addRow({fmtDouble(r1.intervals[i].t_hours, 1),
                   std::to_string(r1.intervals[i].activated_servers),
                   fmtDouble(r1.intervals[i].provisioned_power_w / 1e3,
                             1),
                   std::to_string(r2.intervals[i].activated_servers),
                   fmtDouble(r2.intervals[i].provisioned_power_w / 1e3,
                             1)});
    }
    td.print();
    std::printf("\nD2/D1 capacity: peak %.2fx (paper 2.27x), avg %.2fx "
                "(paper 2.09x)\nD2/D1 power:    peak %.2fx (paper 1.77x), "
                "avg %.2fx (paper 1.64x)\n",
                static_cast<double>(r2.peak_servers) /
                    std::max(r1.peak_servers, 1),
                r2.avg_servers / std::max(r1.avg_servers, 1.0),
                r2.peak_power_w / std::max(r1.peak_power_w, 1.0),
                r2.avg_power_w / std::max(r1.avg_power_w, 1.0));
    if (r1.unsatisfied_intervals || r2.unsatisfied_intervals)
        std::printf("note: %d/%d intervals exceeded CPU-only fleet "
                    "capacity (best-effort allocation)\n",
                    r1.unsatisfied_intervals + r2.unsatisfied_intervals,
                    static_cast<int>(r1.intervals.size() +
                                     r2.intervals.size()));
    return 0;
}
