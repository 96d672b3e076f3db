/**
 * @file
 * The one JSON writer. Every JSON and JSONL artifact (scenario results,
 * bench trajectories, metrics and trace exports) goes through
 * JsonWriter, which owns the syntax: separators, indentation, string
 * escaping, number spelling and I/O errors. The caller owns the schema:
 * keys, their order, and each number's precision.
 *
 * A block container puts each member on its own line, two spaces
 * deeper than its opener; an inline one keeps its members on one line,
 * separated by ", ", and so does every container opened inside it.
 * Empty containers are `{}` and `[]`. Each root value ends its line, so
 * a run of inline root objects is JSONL.
 */
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hercules::util {

/** `s` as a JSON string literal: quoted, `"` `\` `\n` `\t` `\r` escaped. */
std::string jsonQuote(std::string_view s);

/**
 * The shortest decimal that reads back as `v` through strtod: integral
 * values below 1e15 without a fraction ("3"), others with the fewest
 * significant digits that round-trip ("0.1").
 */
std::string shortestDecimal(double v);

/** fclose(f); true when `f` was open and every write succeeded. */
bool closeFile(std::FILE* f);

class JsonWriter
{
  public:
    /** How a container lays out its members. */
    enum Layout { Block, Inline };

    /** Write to `path`, created or truncated; close() reports failures. */
    explicit JsonWriter(const std::string& path);
    ~JsonWriter();

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    JsonWriter& beginObject(Layout l = Block) { return begin('{', l); }
    JsonWriter& endObject() { return end('}'); }
    JsonWriter& beginArray(Layout l = Block) { return begin('[', l); }
    JsonWriter& endArray() { return end(']'); }

    /** Name the next member of the open object. */
    JsonWriter& key(std::string_view name);

    JsonWriter& str(std::string_view s) { return scalar(jsonQuote(s)); }
    JsonWriter& boolean(bool b) { return scalar(b ? "true" : "false"); }
    JsonWriter& null() { return scalar("null"); }

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    JsonWriter&
    integer(T v)
    {
        return scalar(std::to_string(v));
    }

    /** `v` with 0 to 17 `decimals` ("%.*f"); null if not finite. */
    JsonWriter& fixed(double v, int decimals);
    /** `v` with 1 to 17 significant `digits` ("%.*g"); null if not finite. */
    JsonWriter& general(double v, int digits);
    /** shortestDecimal(v); null if not finite. */
    JsonWriter& shortest(double v);

    /**
     * Finish the file; every container must be closed.
     * @return true when it was opened, written and closed.
     */
    bool close();

  private:
    struct Frame
    {
        char close = '}';  ///< '}' or ']'
        bool inline_layout = false;
        size_t members = 0;
        bool key_pending = false;
    };

    JsonWriter& begin(char open, Layout layout);
    JsonWriter& end(char close);
    /** Position the next value: after its key, or as an element. */
    void place();
    /** The separator and indentation before a member or element. */
    void nextMember();
    /** A line break, indented to the open containers' depth. */
    void newline();
    JsonWriter& scalar(std::string_view text);
    /** Write a value's (or a closer's) last text; a root ends its line. */
    JsonWriter& finishValue(std::string_view text);
    void write(std::string_view text);

    std::FILE* f_;
    std::vector<Frame> stack_;
};

}  // namespace hercules::util
