/**
 * @file
 * The evaluation engine's former home. The engine is sim::EvalEngine
 * (sim/eval_engine.h); these names remain only for
 * perfbench/scenario_bench.cc, which includes this header. Code in the
 * repository includes sim/eval_engine.h.
 */
#pragma once

#include "sim/eval_engine.h"

namespace hercules::core {

using sim::EvalEngine;
using sim::EvalOptions;
using sim::EvalRequest;
using sim::EvalResult;

}  // namespace hercules::core
