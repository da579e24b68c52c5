/**
 * @file
 * The one JSON writer behind every report and harness dump.
 *
 * A helper, not a serializer: each caller still lays out its own
 * document (key order, line breaks). This file supplies the pieces
 * that must agree everywhere: string escaping, number formatting,
 * the separators between fields and elements, and a checked file
 * write. Output is a pure function of the values, so reruns are
 * byte-identical.
 */

#ifndef TPCP_COMMON_JSON_HH
#define TPCP_COMMON_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tpcp::json
{

/** How a double prints. */
enum class Real
{
    G10, ///< %.10g: the sample, adapt and fault reports
    G6,  ///< %.6g: ServeReport and harness rows (= std::ostream <<)
    F6,  ///< %.6f: fig8_sweep's fixed-precision rates
};

/** @p s as a quoted JSON string, escaped. */
std::string quote(std::string_view s);

/** @p v printed in @p format. */
std::string real(double v, Real format);

/**
 * One JSON object, `{"a": 1, "b": "x"}`, built field by field. The
 * `, ` between fields is written here, never by the caller.
 */
class Object
{
  public:
    /** An empty object whose doubles print in @p format. */
    explicit Object(Real format = Real::G10) : format_(format) {}

    /** Appends `"key": value`: strings quoted, bools as true/false,
     * integers exact, doubles in the object's Real format. */
    template <typename T>
    Object &
    field(std::string_view key, const T &value)
    {
        if constexpr (std::is_same_v<T, bool>)
            return raw(key, value ? "true" : "false");
        else if constexpr (std::is_floating_point_v<T>)
            return raw(key, real(value, format_));
        else if constexpr (std::is_integral_v<T>)
            return raw(key, std::to_string(value));
        else
            return raw(key, quote(value));
    }

    /** Appends `"key": json`, @p json an already-rendered value. */
    Object &raw(std::string_view key, std::string_view json);

    /** Starts the next field after @p text (a line break and its
     * indent): `,` when a field precedes, then @p text. */
    Object &wrap(std::string_view text);

    /** The finished object, closed by @p close. */
    std::string
    str(std::string_view close = "}") const
    {
        return out_ + std::string(close);
    }

  private:
    std::string out_ = "{";
    Real format_;
    bool first_ = true;
};

/**
 * A JSON array of @p n elements, element(i) rendering the i-th.
 * Without @p indent it is inline, `[e0, e1]`. With one, each element
 * sits on its own line behind @p indent and the closing bracket on
 * the next line, two spaces less indented:
 * `[\n<indent>e0,\n<indent>e1\n]` for an indent of two spaces.
 */
template <typename Element>
std::string
array(std::size_t n, Element element, std::string_view indent = "")
{
    const std::string lead = indent.empty() ? ""
                                            : "\n" + std::string(indent);
    std::string out = "[";
    for (std::size_t i = 0; i < n; ++i) {
        if (i != 0)
            out += indent.empty() ? ", " : ",";
        out += lead;
        out += element(i);
    }
    if (!indent.empty()) {
        out += '\n';
        out += indent.substr(0, indent.size() - 2);
    }
    return out + "]";
}

/** The --json file layout of a row or report list: one toJson(row)
 * per line, found by argument-dependent lookup. */
template <typename Row>
std::string
lines(const std::vector<Row> &rows)
{
    return array(
               rows.size(),
               [&](std::size_t i) { return toJson(rows[i]); }, "  ") +
           "\n";
}

/** Writes @p text to @p path: the one checked file write, also used
 * for phase streams and the trace corpus. Raises tpcp::Error
 * ("cannot write PATH") when the file cannot be opened or the write
 * or its flush fails. */
void writeFile(const std::string &path, std::string_view text);

} // namespace tpcp::json

#endif // TPCP_COMMON_JSON_HH
