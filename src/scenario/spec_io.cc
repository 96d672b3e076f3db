#include "scenario/spec_io.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "fault/fault.h"
#include "model/model_zoo.h"
#include "util/json.h"

namespace hercules::scenario {

namespace {

// ---- value tree ----------------------------------------------------------

struct Field;

/** One parsed JSON-subset value, carrying its 1-based source line. */
struct Value
{
    enum class Kind { Object, Array, String, Number, Bool };
    Kind kind = Kind::Object;
    int line = 0;
    double num = 0.0;
    bool boolean = false;
    std::string str;
    std::vector<Field> fields;  ///< Kind::Object, in source order
    std::vector<Value> items;   ///< Kind::Array
};

struct Field
{
    std::string key;
    int line = 0;       ///< line of the key token
    bool used = false;  ///< claimed by a schema key while binding
    Value value;
};

const char*
kindName(Value::Kind k)
{
    switch (k) {
      case Value::Kind::Object: return "an object";
      case Value::Kind::Array: return "an array";
      case Value::Kind::String: return "a string";
      case Value::Kind::Number: return "a number";
      case Value::Kind::Bool: return "a boolean";
    }
    return "a value";
}

std::string
fmt(const char* f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

// ---- parser --------------------------------------------------------------

/** Recursive-descent parser over the strict JSON subset. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : t_(text) {}

    bool
    parse(Value& out)
    {
        skipWs();
        if (pos_ >= t_.size())
            return fail("empty input");
        if (t_[pos_] != '{')
            return fail("top-level value must be an object");
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != t_.size())
            return fail("trailing content after the top-level object");
        return true;
    }

    std::string error;

  private:
    template <typename... Args>
    bool
    fail(const char* f, Args... args)
    {
        error = fmt("line %d: %.199s", line_, fmt(f, args...).c_str());
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < t_.size()) {
            char c = t_[pos_];
            if (c == '\n')
                ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    parseValue(Value& out)
    {
        skipWs();
        if (pos_ >= t_.size())
            return fail("unexpected end of input");
        out.line = line_;
        char c = t_[pos_];
        if (c == '{' || c == '[') {
            // Bounded, so hostile input fails here instead of
            // overflowing the stack; a spec nests four levels deep.
            if (++depth_ > kMaxDepth)
                return fail("nesting deeper than %d levels", kMaxDepth);
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == '-' || (c >= '0' && c <= '9'))
            return parseNumber(out);
        return fail("unexpected character '%c'", c);
    }

    bool
    parseObject(Value& out)
    {
        out.kind = Value::Kind::Object;
        return parseList('}', "object", [&] {
            skipWs();
            if (pos_ >= t_.size() || t_[pos_] != '"')
                return fail("expected a key string");
            Field f;
            f.line = line_;
            if (!parseString(f.key))
                return false;
            for (const Field& prev : out.fields)
                if (prev.key == f.key) {
                    line_ = f.line;
                    return fail("duplicate key '%s'", f.key.c_str());
                }
            skipWs();
            if (pos_ >= t_.size() || t_[pos_] != ':')
                return fail("expected ':' after key '%s'",
                            f.key.c_str());
            ++pos_;
            if (!parseValue(f.value))
                return false;
            out.fields.push_back(std::move(f));
            return true;
        });
    }

    bool
    parseArray(Value& out)
    {
        out.kind = Value::Kind::Array;
        return parseList(']', "array", [&] {
            out.items.emplace_back();
            return parseValue(out.items.back());
        });
    }

    /** Comma-separated `item`s after an opening bracket, to `close`. */
    template <typename Item>
    bool
    parseList(char close, const char* what, Item item)
    {
        ++pos_;  // the opening bracket
        skipWs();
        if (pos_ < t_.size() && t_[pos_] == close) {
            ++pos_;
            return true;
        }
        while (item()) {
            skipWs();
            if (pos_ >= t_.size())
                return fail("unterminated %s", what);
            if (t_[pos_] == close) {
                ++pos_;
                return true;
            }
            if (t_[pos_] != ',')
                return fail("expected ',' or '%c' in %s", close, what);
            ++pos_;
        }
        return false;
    }

    bool
    parseString(std::string& out)
    {
        ++pos_;  // opening '"'
        out.clear();
        while (pos_ < t_.size()) {
            char c = t_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\n')
                return fail("unterminated string");
            if (c == '\\') {
                if (pos_ + 1 >= t_.size())
                    return fail("unterminated string");
                char e = t_[++pos_];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  default:
                      return fail("unsupported escape '\\%c'", e);
                }
                ++pos_;
                continue;
            }
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value& out)
    {
        out.kind = Value::Kind::Number;
        size_t start = pos_;
        if (t_[pos_] == '-')
            ++pos_;
        auto digits = [&]() {
            size_t n = 0;
            while (pos_ < t_.size() && t_[pos_] >= '0' &&
                   t_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            return fail("malformed number");
        if (pos_ < t_.size() && t_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        if (pos_ < t_.size() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < t_.size() &&
                (t_[pos_] == '+' || t_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("malformed number");
        }
        std::string tok = t_.substr(start, pos_ - start);
        errno = 0;
        out.num = std::strtod(tok.c_str(), nullptr);
        if (errno == ERANGE || !std::isfinite(out.num))
            return fail("number out of range");
        return true;
    }

    bool
    parseBool(Value& out)
    {
        out.kind = Value::Kind::Bool;
        if (t_.compare(pos_, 4, "true") == 0) {
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (t_.compare(pos_, 5, "false") == 0) {
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        return fail("unexpected token");
    }

    static constexpr int kMaxDepth = 64;

    const std::string& t_;
    size_t pos_ = 0;
    int line_ = 1;
    int depth_ = 0;
};

// ---- schema --------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Bind-time range of a number key; `desc` names it in errors. */
struct Range
{
    double lo = -kInf;
    double hi = kInf;
    bool open_lo = false;        ///< lo itself is out of range
    const char* desc = nullptr;  ///< null: any number the grammar reads
};

constexpr Range kNonNegative{0.0, kInf, false, "non-negative"};
constexpr Range kPositive{0.0, kInf, true, "positive"};
constexpr Range kAtLeastOne{1.0, kInf, false, ">= 1"};
constexpr Range kUnit{0.0, 1.0, false, "in [0, 1]"};

enum KeyFlags : unsigned {
    kAlways = 1,               ///< emitted even when equal to the default
    kRequired = 2 | kAlways,   ///< an absent key is a bind error
};

/** One key of a spec object: its name plus its bind and emit rules. */
struct Key
{
    Key(const char* n, Range r = {}, unsigned f = 0)
        : name(n), range(r), flags(f)
    {
    }
    Key(const char* n, unsigned f) : name(n), flags(f) {}

    std::string_view name;  ///< a literal, so data() is NUL-terminated
    Range range;            ///< number keys only
    unsigned flags = 0;
};

/** An enum key's names: its module's parse and name functions. */
template <typename E>
struct Names
{
    const char* what;  ///< noun in "unknown <what> 'x' in ..."
    std::optional<E> (*parse)(const std::string&);
    const char* (*name)(E);
};

std::optional<hw::ServerType>
parseServerTypeName(const std::string& s)
{
    for (hw::ServerType t : hw::allServerTypes())
        if (s == hw::serverTypeName(t))
            return t;
    return std::nullopt;
}

std::optional<model::ModelId>
parseModelName(const std::string& s)
{
    for (model::ModelId m : model::allModels())
        if (s == model::modelName(m))
            return m;
    return std::nullopt;
}

constexpr Names<hw::ServerType> kServerTypes{
    "server type", parseServerTypeName, hw::serverTypeName};
constexpr Names<model::ModelId> kModels{"model", parseModelName,
                                        model::modelName};
constexpr Names<ProvisionerKind> kProvisioners{
    "provisioner", parseProvisionerKind, provisionerKindName};
constexpr Names<sim::RouterPolicy> kRouters{
    "router policy", sim::parseRouterPolicy, sim::routerPolicyName};
constexpr Names<qos::Tier> kTiers{"tier", qos::parseTier, qos::tierName};
constexpr Names<qos::AdmissionPolicy> kAdmissionPolicies{
    "admission policy", qos::parseAdmissionPolicy,
    qos::admissionPolicyName};
constexpr Names<fault::HealthState> kHealthStates{
    "health state", fault::parseHealthState, fault::healthStateName};

/** How the items of an array key are written. */
enum class Layout { Inline, Lines };

/**
 * `Schema<T, S...>` is void when every S is T or const T. Each
 * schema() below lists one spec struct's keys once, in canonical
 * order, and is walked by three visitors: the Binder (one mutable
 * object), the Emitter (the value and its default) and the Lister (a
 * default object). A key line names the key, its rules and the field;
 * the value kind follows from the method and the field's type:
 *
 *   num     double (range-checked) or an integer type (int: any int32;
 *           uint64_t/size_t: [0, 2^53], where doubles stay exact)
 *   str     std::string            flag    bool
 *   choice  enum, through Names    object  a nested spec struct
 *   array   std::vector of a spec struct, items laid out per Layout
 */
template <typename T, typename... S>
using Schema = std::enable_if_t<
    (std::is_same_v<std::remove_const_t<S>, T> && ...)>;

template <typename V, typename... S>
Schema<FleetEntry, S...>
schema(V& v, S&... e)
{
    v.choice({"type", kRequired}, kServerTypes, e.type...);
    v.num("slots", e.shard_slots...);
}

template <typename V, typename... S>
Schema<ServiceScenario, S...>
schema(V& v, S&... s)
{
    v.str("name", s.name...);
    v.choice({"model", kRequired}, kModels, s.spec.model...);
    v.num({"peak_qps_frac", kNonNegative}, s.peak_qps_frac...);
    v.num({"peak_qps", kNonNegative}, s.spec.load.peak_qps...);
    v.num({"trough_frac", kUnit}, s.spec.load.trough_frac...);
    v.num("peak_hour", s.spec.load.peak_hour...);
    v.num("noise_frac", s.spec.load.noise_frac...);
    v.num("load_seed", s.spec.load.seed...);
    v.num("surge_hour", s.spec.load.surge_hour...);
    v.num({"surge_hours", kNonNegative}, s.spec.load.surge_hours...);
    v.num({"surge_factor", kNonNegative}, s.spec.load.surge_factor...);
    v.num({"sla_ms", kNonNegative}, s.spec.sla_ms...);
    v.num("priority", s.spec.qos.priority...);
    v.choice("tier", kTiers, s.spec.qos.tier...);
    v.num({"qos_sla_ms", kNonNegative}, s.spec.qos.sla_ms...);
    v.num({"size_median", kPositive}, s.spec.sizes.median...);
    v.num({"size_sigma", kNonNegative}, s.spec.sizes.sigma...);
    v.num("size_min", s.spec.sizes.min_size...);
    v.num("size_max", s.spec.sizes.max_size...);
    v.num({"pooling_sigma", kNonNegative}, s.spec.pooling.sigma...);
}

template <typename V, typename... S>
Schema<qos::FeedbackConfig, S...>
schema(V& v, S&... f)
{
    v.num("gain", f.gain...);
    v.num("floor_frac", f.floor_frac...);
}

template <typename V, typename... S>
Schema<qos::AdmissionConfig, S...>
schema(V& v, S&... a)
{
    v.choice("policy", kAdmissionPolicies, a.policy...);
    v.num("queue_cap", a.queue_cap...);
    v.num("deadline_slack", a.deadline_slack...);
    v.flag("cross_shard_retry", a.cross_shard_retry...);
}

template <typename V, typename... S>
Schema<cluster::PowerCapPoint, S...>
schema(V& v, S&... p)
{
    v.num({"from_hour", kNonNegative, kAlways}, p.from_hour...);
    v.num({"cap_w", kNonNegative, kAlways}, p.cap_w...);
}

template <typename V, typename... S>
Schema<fault::FaultEvent, S...>
schema(V& v, S&... e)
{
    v.num({"at_hour", kNonNegative, kAlways}, e.t_hours...);
    v.num("fleet", e.fleet_index...);
    v.num("slot", e.slot...);
    // The state IS the event, even the (default) recovery to healthy.
    v.choice({"state", kAlways}, kHealthStates, e.state...);
    v.num({"slowdown", kAtLeastOne}, e.slowdown...);
}

template <typename V, typename... S>
Schema<fault::FaultSpec, S...>
schema(V& v, S&... f)
{
    v.num("seed", f.seed...);
    v.num({"crash_mtbf_hours", kNonNegative}, f.crash_mtbf_hours...);
    v.num({"crash_mttr_hours", kNonNegative}, f.crash_mttr_hours...);
    v.num({"degrade_mtbf_hours", kNonNegative}, f.degrade_mtbf_hours...);
    v.num({"degrade_mttr_hours", kNonNegative}, f.degrade_mttr_hours...);
    v.num({"degrade_slowdown", kAtLeastOne}, f.degrade_slowdown...);
    v.array("events", Layout::Inline, f.events...);
}

template <typename V, typename... S>
Schema<workload::TraceOptions, S...>
schema(V& v, S&... t)
{
    v.num({"bucket_seconds", kPositive}, t.bucket_seconds...);
    v.num({"time_compression", kAtLeastOne}, t.time_compression...);
    v.num("seed", t.seed...);
}

template <typename V, typename... S>
Schema<ProfileSpec, S...>
schema(V& v, S&... p)
{
    v.str("table_cache", p.table_cache...);
    v.str("eval_memo", p.eval_memo...);
    v.num("num_queries", p.num_queries...);
    v.num("warmup_queries", p.warmup_queries...);
    v.num("bisect_iters", p.bisect_iters...);
    v.num("seed", p.seed...);
}

template <typename V, typename... S>
Schema<obs::ObsSpec, S...>
schema(V& v, S&... o)
{
    v.str("trace_file", o.trace_file...);
    v.str("metrics_file", o.metrics_file...);
    v.num("sample_rate", o.sample_rate...);
}

template <typename V, typename... S>
Schema<ScenarioSpec, S...>
schema(V& v, S&... s)
{
    v.str({"name", kAlways}, s.name...);
    v.str("description", s.description...);
    v.array("fleet", Layout::Inline, s.fleet...);
    v.array("services", Layout::Lines, s.services...);
    v.choice("provisioner", kProvisioners, s.provisioner...);
    v.num("nh_seed", s.nh_seed...);
    v.flag("lint", s.lint...);
    v.choice("router", kRouters, s.serve.router...);
    v.num("router_seed", s.serve.router_seed...);
    v.object("feedback", s.serve.feedback...);
    v.object("admission", s.serve.admission...);
    v.num({"horizon_hours", kPositive}, s.serve.horizon_hours...);
    v.num({"interval_hours", kPositive}, s.serve.interval_hours...);
    v.num({"sla_ms", kNonNegative}, s.serve.sla_ms...);
    // Negative means "estimate from the curve", so it stays unranged.
    v.num("overprovision_rate", s.serve.overprovision_rate...);
    v.num({"power_cap_w", kNonNegative}, s.serve.power_cap_w...);
    v.array("power_cap_schedule", Layout::Inline,
            s.serve.power_cap_schedule...);
    v.object("faults", s.serve.faults...);
    v.object("trace", s.serve.trace...);
    v.object("profile", s.profile...);
    v.object("observability", s.observability...);
}

// ---- binder --------------------------------------------------------------

/**
 * Binds one parsed object onto a spec struct, walking its schema.
 * Absent keys keep the (default-initialized) target; keys no schema
 * line claims are rejected by finish() with their line. The first
 * error wins: once *err is set, every later visit is a no-op. The
 * context ("services[1]", "faults.events[0]") is only formatted for
 * an error.
 */
class Binder
{
  public:
    Binder(Value& obj, std::string* err, const Binder* parent = nullptr,
           std::string_view key = {}, size_t index = kNoIndex)
        : obj_(obj), err_(err), parent_(parent), key_(key), index_(index)
    {
    }

    template <typename F>
    void
    num(const Key& k, F& out)
    {
        constexpr bool real = std::is_floating_point_v<F>;
        const Value* v =
            get(k, Value::Kind::Number, real ? "a number" : "an integer");
        if (v == nullptr)
            return;
        if constexpr (real) {
            const Range& r = k.range;
            bool above = r.open_lo ? v->num > r.lo : v->num >= r.lo;
            if (r.desc != nullptr && !(above && v->num <= r.hi))
                return fail(v->line, "key '%s' in %s must be %s (got %g)",
                            k.name.data(), context().c_str(), r.desc,
                            v->num);
        } else {
            // Unsigned keys (seeds, queue_cap) ride through the number
            // grammar, so they are exact only up to 2^53.
            constexpr double hi = std::is_signed_v<F>
                                      ? std::numeric_limits<F>::max()
                                      : 0x1p53;
            if (v->num != std::floor(v->num))
                return typeError(*v, k, "an integer");
            if (v->num < std::numeric_limits<F>::min() || v->num > hi)
                return fail(v->line, "key '%s' in %s is out of range",
                            k.name.data(), context().c_str());
        }
        out = static_cast<F>(v->num);
    }

    void
    str(const Key& k, std::string& out)
    {
        if (const Value* v = get(k, Value::Kind::String, "a string"))
            out = v->str;
    }

    void
    flag(const Key& k, bool& out)
    {
        if (const Value* v = get(k, Value::Kind::Bool, "a boolean"))
            out = v->boolean;
    }

    template <typename E>
    void
    choice(const Key& k, const Names<E>& names, E& out)
    {
        const Value* v = get(k, Value::Kind::String, "a string");
        if (v == nullptr)
            return;
        std::optional<E> parsed = names.parse(v->str);
        if (!parsed.has_value())
            return fail(v->line, "unknown %s '%s' in %s", names.what,
                        v->str.c_str(), context().c_str());
        out = *parsed;
    }

    template <typename T>
    void
    object(const Key& k, T& out)
    {
        if (Value* v = get(k, Value::Kind::Object, "an object")) {
            Binder child(*v, err_, this, k.name);
            schema(child, out);
            child.finish();
        }
    }

    template <typename T>
    void
    array(const Key& k, Layout, std::vector<T>& out)
    {
        Value* v = get(k, Value::Kind::Array, "an array");
        for (size_t i = 0; v != nullptr && i < v->items.size(); ++i) {
            Value& item = v->items[i];
            Binder child(item, err_, this, k.name, i);
            if (item.kind != Value::Kind::Object)
                return fail(item.line, "%s expects an object",
                            child.context().c_str());
            out.emplace_back();
            schema(child, out.back());
            child.finish();
            if (!err_->empty())
                return;
        }
    }

    /** Reject the first key (in source order) no schema line claimed. */
    void
    finish()
    {
        for (const Field& f : obj_.fields)
            if (!f.used && err_->empty())
                fail(f.line, "unknown key '%s' in %s", f.key.c_str(),
                     context().c_str());
    }

  private:
    static constexpr size_t kNoIndex = static_cast<size_t>(-1);

    /**
     * The value of key `k`, marked used; null when absent (an error
     * for a required key), of another kind than `kind` (an error), or
     * once an error is set. The scan resumes after the previous hit,
     * so in a file in canonical order each present key is found at
     * the first comparison.
     */
    Value*
    get(const Key& k, Value::Kind kind, const char* want)
    {
        if (!err_->empty())
            return nullptr;
        std::vector<Field>& fields = obj_.fields;
        for (size_t n = 0; n < fields.size(); ++n) {
            Field& f = fields[next_];
            next_ = next_ + 1 == fields.size() ? 0 : next_ + 1;
            if (f.key != k.name)
                continue;
            f.used = true;
            if (f.value.kind == kind)
                return &f.value;
            typeError(f.value, k, want);
            return nullptr;
        }
        if ((k.flags & kRequired) == kRequired)
            fail(obj_.line, "missing key '%s' in %s", k.name.data(),
                 context().c_str());
        return nullptr;
    }

    template <typename... Args>
    void
    fail(int line, const char* f, Args... args)
    {
        *err_ = fmt("line %d: %s", line, fmt(f, args...).c_str());
    }

    void
    typeError(const Value& v, const Key& k, const char* want)
    {
        fail(v.line, "key '%s' in %s expects %s (got %s)", k.name.data(),
             context().c_str(), want, kindName(v.kind));
    }

    /** "scenario", "feedback", "fleet[2]", "faults.events[0]". */
    std::string
    context() const
    {
        if (parent_ == nullptr)
            return "scenario";
        std::string out(key_);
        if (parent_->parent_ != nullptr)
            out = parent_->context() + "." + out;
        if (index_ != kNoIndex)
            out += "[" + std::to_string(index_) + "]";
        return out;
    }

    Value& obj_;
    std::string* err_;
    const Binder* parent_;
    std::string_view key_;
    size_t index_;
    size_t next_ = 0;
};

// ---- emitter -------------------------------------------------------------

/**
 * `open`, then one part per line, two spaces in, then `close`. Lines
 * inside a part (a nested array) move two spaces further in.
 */
std::string
block(char open, const std::vector<std::string>& parts, char close)
{
    std::string out = {open, '\n', ' ', ' '};
    for (size_t i = 0; i < parts.size(); ++i) {
        for (char c : parts[i]) {
            out += c;
            if (c == '\n')
                out += "  ";
        }
        out += i + 1 < parts.size() ? ",\n  " : "\n";
    }
    return out + close;
}

/**
 * Writes one object's keys in schema order: those that differ from
 * the default, plus the kAlways ones. The object is one line unless
 * its layout asks for lines or it holds an array (`faults` with
 * `events`).
 */
class Emitter
{
  public:
    explicit Emitter(Layout layout = Layout::Inline)
        : lines_(layout == Layout::Lines)
    {
    }

    template <typename F>
    void
    num(const Key& k, F v, F def)
    {
        // The grammar has no spelling for a non-finite number, so one
        // is omitted: that is how an uncapped power_cap_w serializes.
        double x = static_cast<double>(v);
        put(k, x != static_cast<double>(def) && std::isfinite(x),
            util::shortestDecimal(x));
    }

    void
    str(const Key& k, const std::string& v, const std::string& def)
    {
        put(k, v != def, util::jsonQuote(v));
    }

    void
    flag(const Key& k, bool v, bool def)
    {
        put(k, v != def, v ? "true" : "false");
    }

    template <typename E>
    void
    choice(const Key& k, const Names<E>& names, E v, E def)
    {
        put(k, v != def, util::jsonQuote(names.name(v)));
    }

    template <typename T>
    void
    object(const Key& k, const T& v, const T& def)
    {
        Emitter child;
        schema(child, v, def);
        put(k, !child.parts_.empty(), child.text());
    }

    template <typename T>
    void
    array(const Key& k, Layout layout, const std::vector<T>& v,
          const std::vector<T>&)
    {
        static const T kDefault{};
        std::vector<std::string> items;
        for (const T& x : v) {
            Emitter item(layout);
            schema(item, x, kDefault);
            items.push_back(item.text());
        }
        if (!items.empty()) {
            put(k, true, block('[', items, ']'));
            lines_ = true;
        }
    }

    /** {"a": 1, "b": 2}, or one key per line. */
    std::string
    text() const
    {
        if (lines_)
            return block('{', parts_, '}');
        std::string out = "{";
        for (size_t i = 0; i < parts_.size(); ++i)
            out += (i > 0 ? ", " : "") + parts_[i];
        return out + "}";
    }

  private:
    /** Write `k` when it differs from its default or is kAlways. */
    void
    put(const Key& k, bool differs, const std::string& value)
    {
        if (differs || (k.flags & kAlways) != 0)
            parts_.push_back(util::jsonQuote(k.name) + ": " + value);
    }

    bool lines_;
    std::vector<std::string> parts_;
};

// ---- key lister ----------------------------------------------------------

/** Appends every key's dotted path to `out`, in schema order. */
struct Lister
{
    std::vector<std::string>* out;
    std::string prefix;

    template <typename F>
    void num(const Key& k, const F&) { add(k); }
    void str(const Key& k, const std::string&) { add(k); }
    void flag(const Key& k, bool) { add(k); }

    template <typename E>
    void choice(const Key& k, const Names<E>&, E) { add(k); }

    template <typename T>
    void
    object(const Key& k, const T& v)
    {
        Lister child{out, add(k) + "."};
        schema(child, v);
    }

    template <typename T>
    void
    array(const Key& k, Layout, const std::vector<T>&)
    {
        const T item{};
        Lister child{out, add(k) + "[]."};
        schema(child, item);
    }

    const std::string&
    add(const Key& k)
    {
        return out->emplace_back(prefix + std::string(k.name));
    }
};

}  // namespace

std::optional<ScenarioSpec>
parseSpec(const std::string& text, std::string* error)
{
    Value root;
    Parser p(text);
    std::string err;
    ScenarioSpec spec;
    if (p.parse(root)) {
        Binder b(root, &err);
        schema(b, spec);
        b.finish();
    } else {
        err = p.error;
    }
    if (err.empty())
        return spec;
    if (error != nullptr)
        *error = err;
    return std::nullopt;
}

std::optional<ScenarioSpec>
loadSpecFile(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = path + ": cannot open";
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto spec = parseSpec(ss.str(), &err);
    if (!spec.has_value() && error != nullptr)
        *error = path + ": " + err;
    return spec;
}

std::string
toText(const ScenarioSpec& spec)
{
    static const ScenarioSpec kDefault{};
    Emitter root(Layout::Lines);
    schema(root, spec, kDefault);
    return root.text() + "\n";
}

bool
saveSpecFile(const std::string& path, const ScenarioSpec& spec)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toText(spec);
    return static_cast<bool>(out);
}

std::vector<std::string>
schemaKeys()
{
    std::vector<std::string> keys;
    const ScenarioSpec spec{};
    Lister lister{&keys, ""};
    schema(lister, spec);
    return keys;
}

}  // namespace hercules::scenario
