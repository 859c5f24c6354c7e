// Zstd-framed container for shard outcome databases (`.jsonl.zst`).
//
// The fleet streams completed shard databases between hosts; a class-S shard
// DB is megabytes of highly repetitive JSONL, so the wire/disk format is a
// framed compressed container rather than raw text:
//
//   file   := magic("SRZF") version(u8) codec(u8) reserved(u16) frame* end
//   frame  := raw_len(u32) comp_len(u32) checksum(u64 FNV-1a of raw) payload
//   end    := raw_len=0 comp_len=0 checksum = FNV-1a over ALL raw bytes
//
// All integers little-endian. Each frame is independently checksummed, so a
// flipped bit is reported as a *corrupted frame* and a file cut short by a
// killed worker as a *truncated* one — distinct, named ValidationErrors, both
// mapped to exit 3 by serep. The end marker doubles as a whole-stream
// integrity check: a reader knows a complete file from a prefix of one.
//
// The payload codec is zstd (via the system libzstd) when the build found
// it, otherwise a stored (identity) codec — the container format, framing,
// and every checksum stay the same, only the payload transform differs.
// Readers accept stored frames always and zstd frames when the library is
// available; a zstd file on a store-only build is refused with a named
// error instead of garbage. Writers default to the best codec available.
//
// Consumers never deal with any of this: orch::read_shard_db (behind merge,
// resume and the fleet's landing check) and stats::OutcomeTally sniff
// zframe_is() and decompress transparently, so a `.jsonl.zst` database is
// accepted everywhere a plain `.jsonl` one is.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>

namespace serep::util {

/// Payload transform of a zstd-framed file.
enum class ZFrameCodec : std::uint8_t {
    Store = 0, ///< identity (always available)
    Zstd = 1,  ///< zstd, level 3 (when built against libzstd)
};

/// True when this build can compress/decompress Zstd-codec payloads.
bool zstd_available() noexcept;

/// True when `bytes` starts with the zstd-frame container magic.
bool zframe_is(const std::string& bytes) noexcept;

/// Compress `text` into a complete framed file (header + frames + end
/// marker) with the given codec; ZFrameCodec::Zstd silently degrades to
/// Store when the library is absent.
std::string zframe_compress(const std::string& text,
                            ZFrameCodec codec = ZFrameCodec::Zstd);

/// Decode a complete framed file back to its raw bytes. Throws
/// util::ValidationError naming the failure: "truncated frame" (file cut
/// short), "corrupted frame" (checksum or length mismatch), "unsupported
/// codec" (zstd payloads on a store-only build), or "bad magic/version".
std::string zframe_decompress(const std::string& bytes);

/// Streaming writer: an std::ostream whose bytes are buffered into frames
/// and compressed onto `sink`. Drop-in for the shard writers, which take an
/// ostream&:
///
///   ZstdFrameWriter zw(file);
///   orch::run_shard(jobs, cut, opts, zw.stream(), &note);
///   zw.finish();
///
/// finish() flushes the tail frame and the end marker; without it the file
/// is (detectably) truncated. The destructor calls finish() if the caller
/// forgot, swallowing errors — call finish() explicitly to see them.
class ZstdFrameWriter {
public:
    static constexpr std::size_t kDefaultFrameBytes = 256 * 1024;

    explicit ZstdFrameWriter(std::ostream& sink,
                             std::size_t frame_raw_bytes = kDefaultFrameBytes,
                             ZFrameCodec codec = ZFrameCodec::Zstd);
    ~ZstdFrameWriter();

    ZstdFrameWriter(const ZstdFrameWriter&) = delete;
    ZstdFrameWriter& operator=(const ZstdFrameWriter&) = delete;

    std::ostream& stream() noexcept { return stream_; }

    /// Flush buffered bytes and write the end marker. Idempotent. Throws
    /// util::Error when the sink reports failure.
    void finish();

private:
    class Buf;
    std::unique_ptr<Buf> buf_;
    std::ostream stream_;
};

/// Streaming reader over an in-memory framed file: yields one frame's raw
/// bytes at a time (zframe_decompress() is next() in a loop). Validates the
/// header on construction and every frame as it is read; the same named
/// ValidationErrors as zframe_decompress.
class ZstdFrameReader {
public:
    explicit ZstdFrameReader(const std::string& bytes);

    /// Decode the next frame into `out` (replacing its contents). Returns
    /// false — exactly once — after the end marker validated the stream.
    bool next(std::string& out);

private:
    // Owned copy: the reader must outlive any temporary it was built from
    // (the compressed bytes are small; raw frames are what's big).
    const std::string bytes_;
    std::size_t pos_ = 0;
    std::uint64_t running_hash_;
    ZFrameCodec codec_;
    bool done_ = false;
};

} // namespace serep::util
