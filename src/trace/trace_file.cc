#include "trace/trace_file.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/bitops.hh"
#include "common/state_io.hh"
#include "common/status.hh"

namespace tpcp::trace
{

namespace
{

/** Bounds-checked little-endian cursor over an untrusted byte image.
 * Unlike StateReader its error messages name the input file, so a
 * corrupt trace reports where and what failed. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t size,
           const std::string &what)
        : cur(data), end(data + size), what(what)
    {
    }

    std::uint32_t
    u32(const char *field)
    {
        std::uint32_t v;
        raw(&v, sizeof(v), field);
        return v;
    }

    std::uint64_t
    u64(const char *field)
    {
        std::uint64_t v;
        raw(&v, sizeof(v), field);
        return v;
    }

    double
    f64(const char *field)
    {
        std::uint64_t bits = u64(field);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str(const char *field, std::uint32_t max_len)
    {
        std::uint32_t len = u32(field);
        if (len > max_len)
            tpcp_raise("trace ", what, ": ", field, " length ", len,
                       " exceeds the format limit ", max_len);
        std::string s(len, '\0');
        raw(s.data(), len, field);
        return s;
    }

    void
    raw(void *out, std::size_t size, const char *field)
    {
        if (size > remaining())
            tpcp_raise("trace ", what, ": truncated reading ", field,
                       " (need ", size, " bytes, have ", remaining(),
                       ")");
        std::memcpy(out, cur, size);
        cur += size;
    }

    const std::uint8_t *position() const { return cur; }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

  private:
    const std::uint8_t *cur;
    const std::uint8_t *end;
    const std::string &what;
};

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const std::uint8_t *p =
        reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::uint8_t *p =
        reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

void
putStr(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

/** Exact record payload size for a dimension set. */
std::size_t
recordPayloadBytes(const std::vector<unsigned> &dims)
{
    std::size_t n = 8 + 8 + 8; // cpi, insts, accumTotal
    for (unsigned d : dims)
        n += 4ull * d;
    return n;
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(const IntervalProfile &profile, const std::string &source)
{
    if (profile.workload().size() > kTraceMaxName)
        tpcp_raise("trace encode: workload name longer than ",
                   kTraceMaxName, " bytes");
    if (profile.coreName().size() > kTraceMaxCore)
        tpcp_raise("trace encode: core name longer than ",
                   kTraceMaxCore, " bytes");
    if (source.size() > kTraceMaxSource)
        tpcp_raise("trace encode: source note longer than ",
                   kTraceMaxSource, " bytes");
    if (profile.dims().empty() ||
        profile.dims().size() > kTraceMaxDims)
        tpcp_raise("trace encode: ", profile.dims().size(),
                   " dimension configs (format allows 1..",
                   kTraceMaxDims, ")");

    std::vector<std::uint8_t> header;
    putStr(header, profile.workload());
    putStr(header, profile.coreName());
    putStr(header, source);
    putU64(header, profile.intervalLength());
    putU64(header, profile.machineHash());
    putU32(header,
           static_cast<std::uint32_t>(profile.dims().size()));
    for (unsigned d : profile.dims()) {
        if (d == 0 || d > kTraceMaxDim)
            tpcp_raise("trace encode: dimension config ", d,
                       " outside 1..", kTraceMaxDim);
        putU32(header, d);
    }
    putU64(header, profile.numIntervals());

    std::vector<std::uint8_t> out;
    const std::size_t payload_bytes =
        recordPayloadBytes(profile.dims());
    out.reserve(12 + header.size() + 4 +
                profile.numIntervals() * (payload_bytes + 8));
    putU32(out, kTraceMagic);
    putU32(out, kTraceVersion);
    putU32(out, static_cast<std::uint32_t>(header.size()));
    out.insert(out.end(), header.begin(), header.end());
    putU32(out, crc32(header.data(), header.size()));

    std::vector<std::uint8_t> payload;
    payload.reserve(payload_bytes);
    for (const IntervalRecord &rec : profile.intervals()) {
        payload.clear();
        std::uint64_t cpi_bits;
        std::memcpy(&cpi_bits, &rec.cpi, sizeof(cpi_bits));
        putU64(payload, cpi_bits);
        putU64(payload, rec.insts);
        putU64(payload, rec.accumTotal);
        for (const auto &vec : rec.accums) {
            const std::uint8_t *p =
                reinterpret_cast<const std::uint8_t *>(vec.data());
            payload.insert(payload.end(), p,
                           p + vec.size() * sizeof(std::uint32_t));
        }
        tpcp_assert(payload.size() == payload_bytes);
        putU32(out, static_cast<std::uint32_t>(payload.size()));
        out.insert(out.end(), payload.begin(), payload.end());
        putU32(out, crc32(payload.data(), payload.size()));
    }
    return out;
}

TraceData
parseTrace(const std::vector<std::uint8_t> &bytes,
           const std::string &what)
{
    Cursor c(bytes.data(), bytes.size(), what);

    std::uint32_t magic = c.u32("magic");
    if (magic != kTraceMagic)
        tpcp_raise("trace ", what, ": bad magic 0x", std::hex, magic,
                   " (expected 'TPTR')");
    std::uint32_t version = c.u32("version");
    if (version != kTraceVersion)
        tpcp_raise("trace ", what, ": unsupported version ", version,
                   " (this build reads version ", kTraceVersion,
                   ")");
    std::uint32_t header_len = c.u32("header length");
    if (header_len + 4ull > c.remaining())
        tpcp_raise("trace ", what, ": header length ", header_len,
                   " exceeds remaining file size ", c.remaining());
    // CRC-check the header payload before interpreting any of it: a
    // bit flip in an inner length field must not steer the parse.
    const std::uint8_t *header_start = c.position();
    std::uint32_t header_crc_stored;
    std::memcpy(&header_crc_stored, header_start + header_len, 4);
    if (header_crc_stored != crc32(header_start, header_len))
        tpcp_raise("trace ", what,
                   ": header CRC mismatch (file corrupted)");

    Cursor h(header_start, header_len, what);
    std::string name = h.str("workload name", kTraceMaxName);
    std::string core = h.str("core name", kTraceMaxCore);
    std::string source = h.str("source note", kTraceMaxSource);
    std::uint64_t interval_len = h.u64("interval length");
    std::uint64_t machine_hash = h.u64("machine hash");
    std::uint32_t ndims = h.u32("dimension count");
    if (interval_len == 0)
        tpcp_raise("trace ", what, ": interval length is zero");
    if (ndims == 0 || ndims > kTraceMaxDims)
        tpcp_raise("trace ", what, ": dimension count ", ndims,
                   " outside 1..", kTraceMaxDims);
    std::vector<unsigned> dims(ndims);
    for (auto &d : dims) {
        std::uint32_t v = h.u32("dimension config");
        if (v == 0 || v > kTraceMaxDim)
            tpcp_raise("trace ", what, ": dimension config ", v,
                       " outside 1..", kTraceMaxDim);
        d = v;
    }
    std::uint64_t record_count = h.u64("record count");
    if (h.remaining() != 0)
        tpcp_raise("trace ", what, ": header carries ",
                   h.remaining(), " unexpected trailing bytes");

    // Consume the header region + its (already verified) CRC from
    // the outer cursor.
    std::vector<std::uint8_t> scratch(header_len);
    c.raw(scratch.data(), header_len, "header payload");
    (void)c.u32("header CRC");

    // A forged record count must be rejected before it sizes any
    // allocation: each record occupies at least payload + framing.
    const std::size_t payload_bytes = recordPayloadBytes(dims);
    const std::size_t framed_bytes = payload_bytes + 8;
    if (record_count > c.remaining() / framed_bytes)
        tpcp_raise("trace ", what, ": record count ", record_count,
                   " impossible for the ", c.remaining(),
                   " bytes that follow the header");

    IntervalProfile profile(name.empty() ? "trace" : name,
                            core.empty() ? "trace" : core,
                            interval_len, dims);
    profile.setMachineHash(machine_hash);

    std::vector<std::uint8_t> payload(payload_bytes);
    for (std::uint64_t i = 0; i < record_count; ++i) {
        std::uint32_t declared = c.u32("record length");
        if (declared != payload_bytes)
            tpcp_raise("trace ", what, ": record ", i, " declares ",
                       declared, " payload bytes, format requires ",
                       payload_bytes);
        c.raw(payload.data(), payload_bytes, "record payload");
        std::uint32_t rec_crc = c.u32("record CRC");
        if (rec_crc != crc32(payload.data(), payload.size()))
            tpcp_raise("trace ", what, ": record ", i,
                       " CRC mismatch (file corrupted)");

        Cursor r(payload.data(), payload.size(), what);
        IntervalRecord rec;
        rec.cpi = r.f64("cpi");
        rec.insts = r.u64("insts");
        rec.accumTotal = r.u64("accumTotal");
        if (!std::isfinite(rec.cpi) || rec.cpi < 0.0)
            tpcp_raise("trace ", what, ": record ", i,
                       " carries a non-finite or negative CPI");
        if (rec.insts == 0 || rec.insts > kTraceMaxInsts)
            tpcp_raise("trace ", what, ": record ", i,
                       " instruction count ", rec.insts,
                       " outside 1..2^40");
        if (rec.accumTotal > kTraceMaxInsts)
            tpcp_raise("trace ", what, ": record ", i,
                       " accumulator total ", rec.accumTotal,
                       " exceeds 2^40");
        rec.accums.reserve(dims.size());
        for (unsigned d : dims) {
            std::vector<std::uint32_t> vec(d);
            r.raw(vec.data(), 4ull * d, "counters");
            rec.accums.push_back(std::move(vec));
        }
        profile.push(std::move(rec));
    }
    if (c.remaining() != 0)
        tpcp_raise("trace ", what, ": ", c.remaining(),
                   " trailing garbage bytes after the last record");

    TraceData data;
    data.profile = std::move(profile);
    data.source = std::move(source);
    data.contentHash = fnv1a64(bytes.data(), bytes.size());
    return data;
}

namespace
{

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    struct FileCloser
    {
        void
        operator()(std::FILE *f) const
        {
            if (f)
                std::fclose(f);
        }
    };
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(path.c_str(), "rb"));
    if (!f)
        tpcp_raise("trace ", path, ": cannot open for reading");
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        tpcp_raise("trace ", path, ": seek failed");
    long size = std::ftell(f.get());
    if (size < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0)
        tpcp_raise("trace ", path, ": size probe failed");
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size));
    if (!bytes.empty() &&
        std::fread(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size())
        tpcp_raise("trace ", path, ": short read");
    return bytes;
}

} // namespace

void
writeTrace(const std::string &path, const IntervalProfile &profile,
           const std::string &source)
{
    std::vector<std::uint8_t> bytes = encodeTrace(profile, source);
    // Atomic temp + rename; the counter keeps temp names distinct
    // when several threads export into one directory.
    static std::atomic<std::uint64_t> tempCounter{0};
    std::string tmp =
        path + ".tmp" +
        std::to_string(
            tempCounter.fetch_add(1, std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        tpcp_raise("trace ", path, ": cannot open ", tmp,
                   " for writing");
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
    ok = (std::fflush(f) == 0) && ok;
    std::fclose(f);
    std::error_code ec;
    if (!ok) {
        std::filesystem::remove(tmp, ec);
        tpcp_raise("trace ", path, ": write failed");
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        tpcp_raise("trace ", path, ": rename from ", tmp,
                   " failed: ", ec.message());
    }
}

TraceData
readTrace(const std::string &path)
{
    return parseTrace(readFileBytes(path), path);
}

std::uint64_t
traceContentHash(const std::string &path)
{
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    return fnv1a64(bytes.data(), bytes.size());
}

} // namespace tpcp::trace
