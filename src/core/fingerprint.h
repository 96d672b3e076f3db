/**
 * @file
 * The build fingerprint written into every cache file (the EvalEngine
 * memo spill and the efficiency-table CSV), so that a file written by
 * a build that computes anything differently is not reused.
 */
#pragma once

#include <cstdint>
#include <string>

namespace hercules::core {

/**
 * FNV-1a over canonical outputs of this build: cost-model timings
 * (CPU graph timings, GPU batch plans, PCIe) of every zoo model on
 * every server type, power-model readings of every server type, and
 * every step of two short task-scheduling searches on T8 (RMC3
 * unconstrained, DIEN under a 375 W budget). The searches run the
 * search itself, the evaluation engine, the latency-bounded
 * measurement and the simulator on all four mappings, NMP and the
 * GPU hot split included. A change that moves any of these outputs
 * moves the fingerprint, and no list of constants or sources needs
 * upkeep. A change confined to a path none of them reaches (another
 * server type's simulation, a search arm the small space never
 * takes) does not: delete the cache files after such a change.
 * Computed once per process, on first use (~70 ms).
 */
uint64_t buildFingerprint();

/** buildFingerprint() as 16 lowercase hex digits. */
std::string buildFingerprintHex();

}  // namespace hercules::core
