/**
 * @file
 * Seeded mutation test of the scenario parser over every .scn file in
 * scenarios/ and tests/lint_specs/: random byte flips, truncation at
 * every 7th offset, and each key line duplicated. For every mutant,
 * parseSpec must either return a spec whose canonical text re-parses
 * to that same text and that holds no value outside its key's range,
 * or an error that starts with "line N:". It must
 * never crash, which the sanitizer CI job checks by running this test
 * under ASan+UBSan; nesting deep enough to overflow the stack is an
 * error too.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/spec_io.h"
#include "util/rng.h"

namespace hercules::scenario {
namespace {

struct SpecFile
{
    std::string name;
    std::string text;
};

/** Every .scn of both directories, sorted by path. */
std::vector<SpecFile>
specFiles()
{
    std::vector<std::filesystem::path> paths;
    for (const char* dir : {HERCULES_SCENARIO_DIR, HERCULES_LINT_SPEC_DIR})
        for (const auto& ent : std::filesystem::directory_iterator(dir))
            if (ent.path().extension() == ".scn")
                paths.push_back(ent.path());
    std::sort(paths.begin(), paths.end());
    std::vector<SpecFile> files;
    for (const auto& p : paths) {
        std::ifstream in(p);
        std::ostringstream ss;
        ss << in.rdbuf();
        files.push_back({p.filename().string(), ss.str()});
    }
    return files;
}

/** "line N: ..." with N a positive decimal. */
bool
hasLinePrefix(const std::string& err)
{
    if (err.compare(0, 5, "line ") != 0)
        return false;
    size_t i = 5;
    while (i < err.size() &&
           std::isdigit(static_cast<unsigned char>(err[i])))
        ++i;
    return i > 5 && err.compare(i, 2, ": ") == 0;
}

/**
 * Apply the oracle to one mutant; `what` names it in failures.
 * @return true when the mutant parsed.
 */
bool
checkMutant(const std::string& text, const std::string& what)
{
    std::string err;
    auto spec = parseSpec(text, &err);
    if (!spec.has_value()) {
        EXPECT_TRUE(hasLinePrefix(err)) << what << ": " << err;
        return false;
    }
    for (const Diagnostic& d : rangeDiagnostics(*spec))
        ADD_FAILURE() << what << ": " << formatDiagnostic(d);
    std::string canonical = toText(*spec);
    auto again = parseSpec(canonical, &err);
    EXPECT_TRUE(again.has_value())
        << what << ": canonical text does not parse: " << err << "\n"
        << canonical;
    if (again.has_value()) {
        EXPECT_EQ(toText(*again), canonical) << what;
    }
    return true;
}

TEST(SpecFuzz, CorpusIsNonTrivial)
{
    std::vector<SpecFile> files = specFiles();
    EXPECT_GE(files.size(), 20u);
    for (const SpecFile& f : files)
        EXPECT_TRUE(parseSpec(f.text).has_value()) << f.name;
}

TEST(SpecFuzz, ByteFlips)
{
    // Half the flips write a random byte, half a token character, so
    // mutants get past the lexer often enough to reach the binder.
    static const char kTokens[] = "{}[]\":,\\\n -.0123456789eEtfx";
    Rng rng(20261017);
    size_t mutants = 0;
    size_t parsed = 0;
    for (const SpecFile& f : specFiles()) {
        for (int n = 0; n < 300; ++n) {
            std::string text = f.text;
            size_t at = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(text.size()) - 1));
            text[at] = n % 2 == 0
                           ? static_cast<char>(rng.uniformInt(0, 255))
                           : kTokens[rng.uniformInt(
                                 0, sizeof kTokens - 2)];
            parsed += checkMutant(text, f.name + " flip@" +
                                            std::to_string(at));
            ++mutants;
        }
    }
    std::printf("byte flips: %zu of %zu mutants parsed\n", parsed, mutants);
    // Both branches of the oracle must be exercised.
    EXPECT_GT(parsed, mutants / 20);
    EXPECT_LT(parsed, mutants);
}

TEST(SpecFuzz, Truncations)
{
    for (const SpecFile& f : specFiles())
        for (size_t len = 0; len < f.text.size(); len += 7)
            checkMutant(f.text.substr(0, len),
                        f.name + " cut@" + std::to_string(len));
}

TEST(SpecFuzz, DuplicatedKeyLines)
{
    for (const SpecFile& f : specFiles()) {
        size_t begin = 0;
        while (begin < f.text.size()) {
            size_t end = f.text.find('\n', begin);
            end = end == std::string::npos ? f.text.size() : end + 1;
            std::string line = f.text.substr(begin, end - begin);
            if (line.find("\":") != std::string::npos)
                checkMutant(f.text.substr(0, end) + line +
                                f.text.substr(end),
                            f.name + " dup@" + std::to_string(begin));
            begin = end;
        }
    }
}

TEST(SpecFuzz, DeepNestingIsAnErrorNotACrash)
{
    // The root object plus 63 arrays is the deepest accepted nesting.
    auto nested = [](size_t arrays) {
        return "{\"fleet\": " + std::string(arrays, '[') +
               std::string(arrays, ']') + "}";
    };
    std::string err;
    EXPECT_FALSE(parseSpec(nested(63), &err).has_value());
    EXPECT_EQ(err, "line 1: fleet[0] expects an object");
    for (size_t arrays : {64, 100000}) {
        EXPECT_FALSE(parseSpec(nested(arrays), &err).has_value());
        EXPECT_EQ(err, "line 1: nesting deeper than 64 levels");
    }
}

}  // namespace
}  // namespace hercules::scenario
