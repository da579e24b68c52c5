#include "common/json.hh"

#include <cstdio>
#include <fstream>

#include "common/status.hh"

namespace tpcp::json
{

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
real(double v, Real format)
{
    static constexpr const char *spec[] = {"%.10g", "%.6g", "%.6f"};
    // Room for %.6f of the largest double (309 integer digits).
    char buf[400];
    std::snprintf(buf, sizeof(buf), spec[static_cast<int>(format)], v);
    return buf;
}

Object &
Object::raw(std::string_view key, std::string_view json)
{
    if (!first_)
        out_ += ", ";
    first_ = false;
    out_ += quote(key);
    out_ += ": ";
    out_ += json;
    return *this;
}

Object &
Object::wrap(std::string_view text)
{
    if (!first_)
        out_ += ',';
    first_ = true;
    out_ += text;
    return *this;
}

void
writeFile(const std::string &path, std::string_view text)
{
    std::ofstream file(path);
    if (!file ||
        !file.write(text.data(),
                    static_cast<std::streamsize>(text.size())) ||
        !file.flush())
        tpcp_raise("cannot write ", path);
}

} // namespace tpcp::json
