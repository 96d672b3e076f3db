/**
 * @file
 * Every tunable constant of the performance/power model in one place.
 *
 * The paper evaluates on real hardware; we substitute a calibrated
 * analytical model (hw::CostModel). These constants are chosen so the
 * simulator reproduces the *shapes* the paper reports — who wins, by
 * roughly what factor, and where crossovers fall — not absolute numbers.
 * Each constant documents which paper observation pins it down.
 */
#pragma once

namespace hercules::hw::calib {

// ---------------------------------------------------------------- CPU --
/**
 * Effective SIMD FLOPs/cycle/core for inference GEMM/GEMV kernels.
 * Production CPU inference runs far below the AVX-512 peak (64
 * flops/cycle) because of small batches and memory stalls; 10 puts
 * CPU-T2 at ~20 GFLOP/s/core, consistent with DeepRecSys-era serving.
 */
inline constexpr double kCpuFlopsPerCycle = 10.0;

/**
 * GEMM efficiency ramp with batch size: eff = b / (b + kCpuBatchHalf).
 * Small batches pay kernel shape overhead (Fig 11: tiny batches are
 * latency-cheap but throughput-poor).
 */
inline constexpr double kCpuBatchHalf = 3.0;

/** Per-operator dispatch overhead on the host DL framework (us). */
inline constexpr double kCpuOpOverheadUs = 18.0;

/** Per-(sub)query dispatch/setup overhead on a CPU thread (us). */
inline constexpr double kCpuQueryOverheadUs = 35.0;

/** Random-gather efficiency of DDR4 (SLS access pattern). */
inline constexpr double kDdrGatherEff = 0.40;

/**
 * Per-extra-thread memory-interference factor: total effective
 * bandwidth is divided by (1 + f*(threads-1)) beyond pure sharing.
 * Reproduces the co-location interference that makes 10x2 beat 20x1 on
 * DLRM-RMC1 (Fig 4, up to 1.35x).
 */
inline constexpr double kCpuInterferencePerThread = 0.012;

// ---------------------------------------------------------------- GPU --
/** Peak-FLOP fraction a perfectly large GEMM reaches on the GPU. */
inline constexpr double kGpuEffMax = 0.55;

/**
 * Items at which a kernel's achievable device occupancy reaches one
 * half: occ(b) = b / (b + kGpuBatchHalf). A single ~150-item query
 * occupies ~10% of a V100 — the reason query fusion delivers the
 * 2.9–7.9x gains of Fig 6.
 */
inline constexpr double kGpuBatchHalf = 1200.0;

/** Per-kernel launch overhead (us). */
inline constexpr double kGpuKernelLaunchUs = 6.0;

/** HBM efficiency for random embedding gathers. */
inline constexpr double kGpuHbmGatherEff = 0.55;

/**
 * Achievable fraction of the PCIe pin bandwidth. Embedding-index
 * payloads are many small scattered buffers; production loaders reach
 * roughly half the pin rate. Keeps DLRM-RMC3 data-loading-dominated
 * (Fig 7(a): 65-83% of latency).
 */
inline constexpr double kPcieEff = 0.45;

/**
 * Per-DMA-transfer setup latency (us): driver + pinned-buffer staging.
 * Un-fused serving pays this per query; fusion amortizes it — the
 * second lever behind Fig 6/7.
 */
inline constexpr double kPcieSetupUs = 180.0;

/**
 * MPS co-location slowdown: each of g co-located threads sees kernels
 * slowed by (1 + penalty * (g-1)) from scheduler/L2/HBM interference.
 * Keeps Baymax-style co-location gains in the 1.0–1.7x band the paper
 * measures rather than scaling linearly.
 */
inline constexpr double kGpuColocPenalty = 0.45;

/** Fixed host-side pre/post-processing per dispatched GPU batch (us). */
inline constexpr double kGpuHostPrepUs = 50.0;

/** Device memory reserved for runtime/workspace (bytes). */
inline constexpr double kGpuReservedBytes = 1.5e9;

// ---------------------------------------------------------------- NMP --
/** DRAM core clock of DDR4-2666 (MHz) used by the cycle model. */
inline constexpr double kNmpDramMhz = 1333.0;

/** tRCD + tCAS cycles charged per row gather in the NMP rank. */
inline constexpr double kNmpAccessCycles = 38.0;

/** Cycles per 64 B burst of embedding-row data. */
inline constexpr double kNmpBurstCycles = 4.0;

/** Bank-level parallelism overlap inside one rank (16 banks, ~4 open). */
inline constexpr double kNmpBankOverlap = 4.0;

/** NMP processing-unit adder overhead cycles per pooled vector. */
inline constexpr double kNmpReduceCycles = 8.0;

/** Host-visible per-SLS-op dispatch cost of the dummy NMP operator (us). */
inline constexpr double kNmpHostDispatchUs = 10.0;

/** Energy per DRAM row access inside the NMP rank (nJ). */
inline constexpr double kNmpAccessEnergyNj = 18.0;

// -------------------------------------------------------------- Power --
/** CPU idle power as a fraction of TDP. */
inline constexpr double kCpuIdleFrac = 0.35;

/** Dynamic CPU power exponent: P = idle + span*util^alpha. */
inline constexpr double kCpuPowerAlpha = 0.9;

/** Memory idle power as a fraction of its TDP. */
inline constexpr double kMemIdleFrac = 0.30;

/**
 * GPU idle/leakage power fraction. Serving deployments pin memory and
 * SM clocks high, so a V100 draws ~75 W with no kernels resident; the
 * paper names this leakage as what caps GPU energy efficiency and
 * keeps CPU+NMP ahead of CPU+GPU in QPS/W for the DLRMs (Fig 8(a)).
 */
inline constexpr double kGpuIdleFrac = 0.25;

/** Extra idle watts per NMP processing unit (one per rank). */
inline constexpr double kNmpPuIdleW = 1.5;

// ------------------------------------------------------- Measurement --
/** Default tail percentile for "latency-bounded" throughput. */
inline constexpr double kTailPercentile = 95.0;

}  // namespace hercules::hw::calib
