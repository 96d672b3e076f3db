/**
 * @file
 * Text serialization of ScenarioSpec: a strict JSON subset (objects,
 * arrays, strings, numbers, booleans — no null, no comments) with
 *
 *  - exact round-trip: toText(parse(toText(s))) == toText(s) for every
 *    spec, with doubles printed at the shortest precision that
 *    round-trips through strtod;
 *  - one schema: spec_io.cc declares each key once, in canonical
 *    order, with its kind, range (and that range's lint code), and
 *    whether it is required or always written; parseSpec, toText,
 *    schemaKeys and rangeDiagnostics all walk that declaration;
 *  - canonical output: fields appear in schema order and fields equal
 *    to their default are omitted, as are non-finite numbers, which
 *    the grammar cannot spell (an uncapped power_cap_w or cap_w never
 *    appears);
 *  - line/key-precise errors: duplicate keys are rejected at parse
 *    time, unknown keys at bind time, both reporting the offending
 *    key and its 1-based line ("scenario.scn: line 12: unknown key
 *    'peek_qps' in services[0]").
 *
 * The grammar is documented in src/scenario/README.md.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/lint.h"
#include "scenario/scenario.h"

namespace hercules::scenario {

/**
 * Parse a scenario spec from text.
 *
 * @param text  the spec source.
 * @param error out (may be null): on failure, a message carrying the
 *              1-based line and the offending key where applicable.
 * @return the spec, or nullopt on any syntax/schema error.
 */
std::optional<ScenarioSpec> parseSpec(const std::string& text,
                                      std::string* error = nullptr);

/**
 * Load + parse a scenario file. Errors are prefixed with the path
 * ("scenarios/foo.scn: line 12: ...").
 */
std::optional<ScenarioSpec> loadSpecFile(const std::string& path,
                                         std::string* error = nullptr);

/** Serialize to canonical text (ends with a newline). */
std::string toText(const ScenarioSpec& spec);

/**
 * Every key of the format as a dotted path, in canonical order:
 * "fleet", "fleet[].type", ..., "faults.events[].state", ....
 */
std::vector<std::string> schemaKeys();

/**
 * Every number outside its key's range, as lint errors in schema order
 * ("services[1].size_median": "size_median must be positive (got 0)").
 * parseSpec applies the same ranges, so a parsed spec has none.
 */
std::vector<Diagnostic> rangeDiagnostics(const ScenarioSpec& spec);

}  // namespace hercules::scenario
