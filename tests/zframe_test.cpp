// util/zframe — the SRZF zstd-framed container shard databases travel in.
//
// Contracts gated here:
//  * compress -> decompress is the identity for empty, tiny, repetitive,
//    and incompressible inputs, with both codecs, on builds with and
//    without libzstd (Store degrades transparently).
//  * The streaming writer (ZstdFrameWriter over an ostream) produces a
//    container the one-shot reader accepts, across frame boundaries.
//  * Damage is REJECTED with a named util::ValidationError — "truncated
//    frame" when the file ends early, "corrupted frame" when bytes are
//    flipped, "bad magic" for non-SRZF input — never a silently wrong
//    decode: a fleet controller classifies a dead worker's partial upload
//    by exactly these errors.
//  * merge_shards() accepts a MIX of plain and zstd-framed shard databases
//    and the merged CSV/JSONL bytes equal the all-plain merge exactly
//    (compression is a transport detail, invisible to the campaign
//    invariant).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "orch/shard.hpp"
#include "util/check.hpp"
#include "util/zframe.hpp"

using namespace serep;

namespace {

/// Inputs spanning the interesting shapes: empty, sub-frame, repetitive
/// (compresses hard), and pseudo-random (stored fallback — zstd cannot
/// shrink it).
std::vector<std::string> sample_inputs() {
    std::string repetitive;
    for (int i = 0; i < 20000; ++i)
        repetitive += "{\"outcome\":\"Vanished\",\"ordinal\":42}\n";
    std::string incompressible;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 4096; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        incompressible += static_cast<char>(x & 0xFF);
    }
    return {"", "x", "hello zframe\n", repetitive, incompressible};
}

/// Decoding `blob` must throw util::ValidationError naming `needle`.
void expect_named_rejection(const std::string& blob,
                            const std::string& needle) {
    try {
        util::zframe_decompress(blob);
        FAIL() << "damaged container accepted (wanted '" << needle << "')";
    } catch (const util::ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' does not mention '" << needle
            << "'";
    }
}

} // namespace

// -------------------------------------------------------------- round trip

TEST(ZFrame, CompressDecompressIsIdentity) {
    for (const std::string& input : sample_inputs()) {
        const std::string z = util::zframe_compress(input);
        EXPECT_TRUE(util::zframe_is(z));
        EXPECT_FALSE(util::zframe_is(input)); // plain text never looks framed
        EXPECT_EQ(util::zframe_decompress(z), input);
    }
}

TEST(ZFrame, StoreCodecRoundTripsWithoutZstd) {
    // The Store codec must work on every build — it is the degradation
    // path when libzstd is absent at configure time.
    for (const std::string& input : sample_inputs()) {
        const std::string z =
            util::zframe_compress(input, util::ZFrameCodec::Store);
        EXPECT_TRUE(util::zframe_is(z));
        EXPECT_EQ(util::zframe_decompress(z), input);
    }
}

TEST(ZFrame, CompressionActuallyShrinksRepetitiveInput) {
    if (!util::zstd_available()) GTEST_SKIP() << "store-codec build";
    std::string repetitive;
    for (int i = 0; i < 20000; ++i)
        repetitive += "{\"outcome\":\"Vanished\",\"ordinal\":42}\n";
    const std::string z = util::zframe_compress(repetitive);
    EXPECT_LT(z.size(), repetitive.size() / 10);
}

TEST(ZFrame, StreamingWriterMatchesOneShotReader) {
    // Tiny frames force many frame boundaries; dribbling single characters
    // exercises the streambuf's buffering, not just bulk xsputn.
    for (const std::string& input : sample_inputs()) {
        std::ostringstream sink;
        {
            util::ZstdFrameWriter zw(sink, 64);
            for (std::size_t i = 0; i < input.size(); ++i) {
                if (i % 3 == 0)
                    zw.stream().put(input[i]);
                else
                    zw.stream().write(&input[i], 1);
            }
            zw.finish();
        }
        EXPECT_EQ(util::zframe_decompress(sink.str()), input);
    }
}

TEST(ZFrame, ReaderYieldsFramesThatConcatenateToTheInput) {
    std::string input;
    for (int i = 0; i < 3000; ++i)
        input += "record line " + std::to_string(i) + "\n";
    std::ostringstream sink;
    util::ZstdFrameWriter zw(sink, 1024);
    zw.stream() << input;
    zw.finish();

    util::ZstdFrameReader reader(sink.str());
    std::string reassembled, frame;
    std::size_t frames = 0;
    while (reader.next(frame)) {
        reassembled += frame;
        ++frames;
    }
    EXPECT_EQ(reassembled, input);
    EXPECT_GT(frames, 1u) << "1024-byte frames must split a "
                          << input.size() << "-byte input";
}

// ---------------------------------------------------------- damage models

TEST(ZFrame, TruncationIsRejectedByName) {
    const std::string z = util::zframe_compress(sample_inputs()[3]);
    // A dead worker's partial upload: cut anywhere — inside the trailing
    // end marker, inside a frame payload, inside a frame header.
    expect_named_rejection(z.substr(0, z.size() - 3), "truncated frame");
    expect_named_rejection(z.substr(0, z.size() / 2), "truncated frame");
    expect_named_rejection(z.substr(0, 12), "truncated frame");
    // Nothing after the container header: no end marker seen -> truncated.
    expect_named_rejection(z.substr(0, 8), "truncated frame");
}

TEST(ZFrame, CorruptionIsRejectedByName) {
    const std::string z = util::zframe_compress(sample_inputs()[3]);
    std::string flipped = z;
    // Container header is 8 bytes, frame header 16: offset 26 sits inside
    // the first frame's payload on any codec.
    flipped[26] ^= 0x40;
    expect_named_rejection(flipped, "corrupted frame");

    std::string tail = z;
    tail += "junk after the end marker";
    expect_named_rejection(tail, "trailing bytes");
}

TEST(ZFrame, ForeignContainersAreRejectedByName) {
    expect_named_rejection(std::string("SRZF\x09\x00\x00\x00", 8),
                           "unsupported container version");
    std::string wrong_codec = util::zframe_compress("payload");
    wrong_codec[5] = '\x07'; // codec byte: neither Store nor Zstd
    expect_named_rejection(wrong_codec, "unknown codec id");
    // Plain text is not an SRZF container; zframe_is() is the guard the
    // ingestion paths use, and direct decompression names the problem.
    EXPECT_FALSE(util::zframe_is("{\"magic\":\"serep-shard\"}\n"));
    expect_named_rejection("SRZGxxxxxxxxxxxxxxxx", "bad magic");
}

// ------------------------------------------------- merge transparency gate

namespace {

const npb::Scenario kA{isa::Profile::V7, npb::App::DC, npb::Api::Serial, 1,
                       npb::Klass::Mini};
const npb::Scenario kB{isa::Profile::V8, npb::App::EP, npb::Api::Serial, 1,
                       npb::Klass::Mini};

std::vector<orch::ShardJobSpec> mix_jobs() {
    core::CampaignConfig a, b;
    a.n_faults = 30;
    a.seed = 0xABCDEF;
    b.n_faults = 25;
    b.seed = 0x1234;
    return {{kA, a}, {kB, b}};
}

} // namespace

TEST(ZFrame, MixedPlainAndCompressedShardsMergeByteIdentical) {
    std::vector<std::string> plain;
    for (unsigned i = 0; i < 3; ++i) {
        std::ostringstream os;
        orch::run_shard(mix_jobs(), orch::uniform_cut(mix_jobs(), i, 3),
                        orch::BatchOptions{}, os);
        plain.push_back(os.str());
    }
    std::ostringstream ref_csv, ref_jsonl;
    orch::merge_shards(plain, &ref_csv, &ref_jsonl);

    // Compress shard 1 only: transport is per-shard (some workers stream
    // compressed, some plain — e.g. a mid-upgrade fleet).
    std::vector<std::string> mixed = plain;
    mixed[1] = util::zframe_compress(mixed[1]);
    std::ostringstream csv, jsonl;
    const auto merged = orch::merge_shards(mixed, &csv, &jsonl);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(csv.str(), ref_csv.str());
    EXPECT_EQ(jsonl.str(), ref_jsonl.str());

    // All-compressed merges identically too.
    std::vector<std::string> allz;
    for (const std::string& db : plain)
        allz.push_back(util::zframe_compress(db));
    std::ostringstream zcsv, zjsonl;
    orch::merge_shards(allz, &zcsv, &zjsonl);
    EXPECT_EQ(zcsv.str(), ref_csv.str());
    EXPECT_EQ(zjsonl.str(), ref_jsonl.str());
}
