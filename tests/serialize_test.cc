// Unit + property tests: coding primitives, compression codecs, frames,
// and the sectioned-message codec (framing, meta sections, Status).

#include <gtest/gtest.h>

#include "common/random.h"
#include "serialize/coding.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "serialize/sections.h"
#include "test_util.h"

namespace flor {
namespace {

TEST(Coding, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(dec.GetFixed32(&a).ok());
  ASSERT_TRUE(dec.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.done());
}

TEST(Coding, VarintRoundTripBoundaries) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                             UINT32_MAX, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint64(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(dec.done());
}

TEST(Coding, SignedVarintZigzag) {
  std::string buf;
  const int64_t values[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutSignedVarint64(&buf, v);
  Decoder dec(buf);
  for (int64_t v : values) {
    int64_t out;
    ASSERT_TRUE(dec.GetSignedVarint64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Coding, FloatsBitExact) {
  std::string buf;
  PutFloat(&buf, 3.14159f);
  PutDouble(&buf, -2.718281828459045);
  Decoder dec(buf);
  float f;
  double d;
  ASSERT_TRUE(dec.GetFloat(&f).ok());
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  EXPECT_EQ(f, 3.14159f);
  EXPECT_EQ(d, -2.718281828459045);
}

TEST(Coding, LengthPrefixed) {
  std::string buf;
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string("bin\0ary", 7));
  Decoder dec(buf);
  std::string a, b;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&b).ok());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, std::string("bin\0ary", 7));
}

TEST(Coding, UnderflowDetected) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  uint64_t v64;
  EXPECT_TRUE(dec.GetFixed64(&v64).IsCorruption());
  uint32_t v32;
  EXPECT_TRUE(dec.GetFixed32(&v32).ok());  // cursor unchanged on failure
}

TEST(Coding, TruncatedVarintDetected) {
  std::string buf;
  buf.push_back(static_cast<char>(0x80));  // continuation with no next byte
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(Coding, TruncatedStringDetected) {
  std::string buf;
  PutVarint64(&buf, 100);  // claims 100 bytes, provides none
  Decoder dec(buf);
  std::string s;
  EXPECT_TRUE(dec.GetLengthPrefixed(&s).IsCorruption());
}

TEST(Coding, RandomRoundTripProperty) {
  Rng rng = testutil::SeededRng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    // Bias the magnitude so every varint width (1..10 bytes) gets coverage.
    const int bits = 1 + static_cast<int>(rng.Uniform(64));
    const uint64_t v64 = rng.Next() >> (64 - bits);
    const uint32_t v32 = static_cast<uint32_t>(v64);
    const int64_t s64 = static_cast<int64_t>(rng.Next());
    std::string buf;
    PutVarint64(&buf, v64);
    PutVarint32(&buf, v32);
    PutSignedVarint64(&buf, s64);
    PutFixed32(&buf, v32);
    PutFixed64(&buf, v64);
    Decoder dec(buf);
    uint64_t got64 = 0, gotf64 = 0;
    uint32_t got32 = 0, gotf32 = 0;
    int64_t gots64 = 0;
    ASSERT_TRUE(dec.GetVarint64(&got64).ok());
    ASSERT_TRUE(dec.GetVarint32(&got32).ok());
    ASSERT_TRUE(dec.GetSignedVarint64(&gots64).ok());
    ASSERT_TRUE(dec.GetFixed32(&gotf32).ok());
    ASSERT_TRUE(dec.GetFixed64(&gotf64).ok());
    EXPECT_EQ(got64, v64);
    EXPECT_EQ(got32, v32);
    EXPECT_EQ(gots64, s64);
    EXPECT_EQ(gotf32, v32);
    EXPECT_EQ(gotf64, v64);
    EXPECT_TRUE(dec.done());
  }
}

TEST(Coding, EveryStrictPrefixFailsToFullyDecode) {
  // One buffer holding every primitive; decoding any strict prefix must
  // fail at some field (no crash, no bogus full parse).
  std::string buf;
  PutVarint64(&buf, 0x8f00ff00ff00ffULL);
  PutVarint32(&buf, 0xdeadbeefu);
  PutSignedVarint64(&buf, -123456789);
  PutFixed32(&buf, 0x01020304u);
  PutFixed64(&buf, 0x05060708090a0b0cULL);
  PutFloat(&buf, 1.5f);
  PutDouble(&buf, -2.5);
  PutLengthPrefixed(&buf, "payload");
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Decoder dec(buf.data(), cut);
    uint64_t v64, f64;
    uint32_t v32, f32;
    int64_t s64;
    float f;
    double d;
    std::string s;
    const bool all_ok =
        dec.GetVarint64(&v64).ok() && dec.GetVarint32(&v32).ok() &&
        dec.GetSignedVarint64(&s64).ok() && dec.GetFixed32(&f32).ok() &&
        dec.GetFixed64(&f64).ok() && dec.GetFloat(&f).ok() &&
        dec.GetDouble(&d).ok() && dec.GetLengthPrefixed(&s).ok();
    EXPECT_FALSE(all_ok) << "cut=" << cut;
  }
}

std::string RandomBytes(size_t n, uint64_t salt) {
  Rng rng = testutil::SeededRng(salt);
  std::string out(n, 0);
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

std::string CompressibleBytes(size_t n, uint64_t salt) {
  Rng rng = testutil::SeededRng(salt);
  std::string out;
  while (out.size() < n) {
    const char c = static_cast<char>(rng.Uniform(4));
    out.append(16 + rng.Uniform(64), c);
  }
  out.resize(n);
  return out;
}

class CompressRoundTrip
    : public ::testing::TestWithParam<std::tuple<Codec, size_t, bool>> {};

TEST_P(CompressRoundTrip, Lossless) {
  auto [codec, size, compressible] = GetParam();
  const std::string input = compressible ? CompressibleBytes(size, size)
                                         : RandomBytes(size, size);
  std::string packed = Compress(input, codec);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAndSizes, CompressRoundTrip,
    ::testing::Combine(::testing::Values(Codec::kNone, Codec::kRle,
                                         Codec::kLz),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{7},
                                         size_t{255}, size_t{4096},
                                         size_t{1} << 17),
                       ::testing::Bool()));

TEST(Compress, CompressibleShrinks) {
  const std::string input = CompressibleBytes(1 << 16, 3);
  EXPECT_LT(Compress(input, Codec::kRle).size(), input.size() / 2);
  EXPECT_LT(Compress(input, Codec::kLz).size(), input.size() / 2);
}

TEST(Compress, IncompressibleFallsBackToRaw) {
  const std::string input = RandomBytes(1 << 14, 5);
  std::string packed = Compress(input, Codec::kLz);
  auto codec = PeekCodec(packed);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(*codec, Codec::kNone);  // stored raw, never inflated
  EXPECT_LE(packed.size(), input.size() + 16);
}

TEST(Compress, LzRequestEncodesAsRle) {
  // The retired kLz request is the RLE codec, byte for byte, on input RLE
  // shrinks and on input it stores raw.
  for (const std::string& input :
       {CompressibleBytes(1 << 14, 7), RandomBytes(1 << 14, 8)}) {
    EXPECT_EQ(Compress(input, Codec::kLz), Compress(input, Codec::kRle));
  }
  EXPECT_EQ(*PeekCodec(Compress(CompressibleBytes(1 << 14, 7), Codec::kLz)),
            Codec::kRle);
}

TEST(Compress, RetiredLzBlobIsCorruption) {
  // A well-formed LZ blob of "abc" (one flag byte, three literals), as
  // stores written with the LZ codec hold: tag 2 no longer decodes.
  std::string blob(1, static_cast<char>(Codec::kLz));
  PutVarint64(&blob, 3);
  blob.push_back('\0');
  blob.append("abc");
  auto codec = PeekCodec(blob);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(*codec, Codec::kLz);
  auto got = Decompress(blob);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST(Compress, MalformedInputRejected) {
  EXPECT_TRUE(Decompress("").status().IsCorruption());
  std::string bogus;
  bogus.push_back(9);  // unknown codec byte
  EXPECT_TRUE(Decompress(bogus).status().IsCorruption());
}

TEST(Compress, SizeMismatchDetected) {
  std::string packed = Compress("hello world, hello world", Codec::kRle);
  packed.pop_back();  // truncate body
  EXPECT_FALSE(Decompress(packed).ok());
}

TEST(Compress, CorruptedBlobsFailTypedAndTruncatedNeverDecode) {
  // Bucket objects may be torn or hostile, so Decompress must never
  // crash or fail with anything but Corruption, and a strict prefix must
  // never decode. A blob carries no checksum of its own: a flipped literal
  // byte decodes to different bytes of the declared size, which the
  // checkpoint frame's CRC above it rejects (Frame tests below).
  const std::string compressible = CompressibleBytes(2048, 11);
  for (Codec codec : {Codec::kNone, Codec::kRle, Codec::kLz}) {
    const std::string packed = Compress(compressible, codec);
    testutil::ForEachCorruption(
        packed, /*salt=*/12 + static_cast<uint64_t>(codec), /*splices=*/200,
        [&](const testutil::Corrupted& c) {
          auto got = Decompress(c.bytes);
          if (got.ok()) {
            EXPECT_FALSE(c.truncated)
                << "codec " << static_cast<int>(codec) << " " << c.what
                << " decoded";
          } else {
            EXPECT_TRUE(got.status().IsCorruption())
                << "codec " << static_cast<int>(codec) << " " << c.what
                << ": " << got.status().ToString();
          }
        });
  }
}

TEST(Frame, RoundTripMultiple) {
  std::string file;
  AppendFrame(&file, "first");
  AppendFrame(&file, "");
  AppendFrame(&file, RandomBytes(1000, 1));
  auto frames = ReadFrames(file);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 3u);
  EXPECT_EQ((*frames)[0], "first");
  EXPECT_EQ((*frames)[1], "");
}

TEST(Frame, EveryByteCorruptionDetected) {
  // A corrupted frame stream fails, or yields only exact copies of the
  // original frame (a splice can duplicate a whole frame; the empty
  // prefix is an empty stream).
  const std::string payload = "checkpoint payload bytes";
  std::string file;
  AppendFrame(&file, payload);
  testutil::ForEachCorruption(
      file, /*salt=*/15, /*splices=*/200, [&](const testutil::Corrupted& c) {
        auto frames = ReadFrames(c.bytes);
        if (!frames.ok()) return;
        for (const std::string& frame : *frames)
          EXPECT_EQ(frame, payload) << c.what << " undetected";
        if (c.truncated) {
          EXPECT_TRUE(frames->empty()) << c.what << " decoded a torn frame";
        } else {
          EXPECT_NE(frames->size(), 1u) << c.what << " undetected";
        }
      });
}

TEST(Frame, ReaderReportsEofAsNotFound) {
  std::string file;
  AppendFrame(&file, "x");
  FrameReader reader(file);
  std::string payload;
  ASSERT_TRUE(reader.Next(&payload).ok());
  EXPECT_TRUE(reader.Next(&payload).IsNotFound());
}

// ------------------------------------------------------------ sections ---
// The worker result file (tag kResultTag) is the historical client of the
// sectioned framing; the ResultFile cases pin it, the Sections / Meta /
// StatusSections cases pin the rules every client shares.

TEST(ResultFile, RoundTripsArbitrarySections) {
  // Sections carry raw bytes: embedded NULs, tabs, newlines, emptiness.
  const std::vector<std::string> sections = {
      "plain", std::string("\0binary\0", 8), "tab\there\nand newline", ""};
  const std::string encoded = EncodeSections(kResultTag, sections);
  auto decoded = DecodeSections(kResultTag, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, sections);

  // Zero sections is a valid (if empty) result.
  auto none = DecodeSections(kResultTag, EncodeSections(kResultTag, {}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ResultFile, EveryTruncationAndHeaderLieIsCorruption) {
  const std::string encoded =
      EncodeSections(kResultTag, {"alpha", "beta", "gamma"});
  // Every strict prefix fails — including the empty file and cuts at
  // exact frame boundaries (the header's section count catches those) —
  // and so does every flip, inflation and splice.
  testutil::ExpectCorruptionsRejected(
      encoded, /*salt=*/61, /*splices=*/200, [](const std::string& bytes) {
        return DecodeSections(kResultTag, bytes).status();
      });
  // Appending a stray well-formed frame is also a count mismatch.
  std::string extra = encoded;
  AppendFrame(&extra, "stray");
  EXPECT_TRUE(DecodeSections(kResultTag, extra).status().IsCorruption());
  // A frame stream without the florres header is rejected.
  std::string headerless;
  AppendFrame(&headerless, "not a header");
  EXPECT_TRUE(
      DecodeSections(kResultTag, headerless).status().IsCorruption());
}

TEST(ResultFile, SingleByteMutationsNeverParse) {
  // Empty and binary sections: frames whose payload is zero bytes or
  // holds NULs must be just as tamper-evident.
  const std::string encoded = EncodeSections(
      kResultTag, {"", std::string("\0bin\0", 5), "beta"});
  testutil::ExpectCorruptionsRejected(
      encoded, /*salt=*/62, /*splices=*/200, [](const std::string& bytes) {
        return DecodeSections(kResultTag, bytes).status();
      });
}

TEST(Sections, HeaderBytesArePinnedPerTag) {
  // Frame 0 is "<tag>\t<n>"; the wire tags keep their historical
  // "florwir1\t<req|res>" spelling.
  for (const char* tag : {kResultTag, kWireRequestTag, kWireResponseTag}) {
    std::string expected;
    AppendFrame(&expected, std::string(tag) + "\t1");
    AppendFrame(&expected, "x");
    EXPECT_EQ(EncodeSections(tag, {"x"}), expected) << tag;
  }
}

TEST(Sections, AnotherTagIsCorruption) {
  const std::string request = EncodeSections(kWireRequestTag, {"a"});
  EXPECT_TRUE(DecodeSections(kWireRequestTag, request).ok());
  for (const char* other : {kResultTag, kWireResponseTag, "florwir1"}) {
    EXPECT_TRUE(DecodeSections(other, request).status().IsCorruption())
        << other;
  }
  // A header whose count is not a plain decimal is Corruption too.
  for (const char* bad : {"florres1", "florres1\t", "florres1\t-1",
                          "florres1\t1x", "florres10\t0"}) {
    std::string message;
    AppendFrame(&message, bad);
    EXPECT_TRUE(DecodeSections(kResultTag, message).status().IsCorruption())
        << bad;
  }
}

TEST(Meta, RoundTripsEveryFieldKindBitExactly) {
  const std::string block = MetaWriter()
                                .Str("name", "tab\tinside")
                                .Str("empty", "")
                                .Int("neg", -42)
                                .Bool("flag", true)
                                .Double("tenth", 0.1)
                                .Finish();
  EXPECT_EQ(block,
            "name\ttab\tinside\nempty\t\nneg\t-42\nflag\t1\n"
            "tenth\t0x1.999999999999ap-4\n");
  std::string name, empty;
  int64_t neg = 0;
  bool flag = false;
  double tenth = 0;
  ASSERT_TRUE(MetaReader(block)
                  .Str("name", &name)
                  .Str("empty", &empty)
                  .Int("neg", &neg)
                  .Bool("flag", &flag)
                  .Double("tenth", &tenth)
                  .Finish()
                  .ok());
  EXPECT_EQ(name, "tab\tinside");
  EXPECT_EQ(empty, "");
  EXPECT_EQ(neg, -42);
  EXPECT_TRUE(flag);
  EXPECT_EQ(tenth, 0.1);
}

Status ReadAB(const std::string& block) {
  int64_t a = 0, b = 0;
  return MetaReader(block).Int("a", &a).Int("b", &b).Finish();
}

TEST(Meta, ExactlyTheWrittenKeysInTheWrittenOrder) {
  EXPECT_TRUE(ReadAB("a\t1\nb\t2\n").ok());
  for (const char* bad : {
           "",                          // missing everything
           "a\t1\n",                   // missing key
           "a\t1\nb\t2\nc\t3\n",   // extra key
           "b\t2\na\t1\n",           // reordered
           "a\t1\na\t1\nb\t2\n",   // duplicated
           "a\t1\nb\t2",              // no trailing newline
           "a\t1\nb\t2\n\n",        // trailing blank line
           "a\t1\nbb\t2\n",          // key prefix is not the key
           "a\t1\nb 2\n",             // no tab
           "a\t1\nb\tx\n",           // unparsable integer
           "a\t1\nb\t\n",            // empty integer
       }) {
    EXPECT_TRUE(ReadAB(bad).IsCorruption()) << "'" << bad << "'";
  }
}

TEST(Meta, OutOfRangeAndUnparsableValuesAreCorruption) {
  int32_t narrow = 0;
  EXPECT_TRUE(
      MetaReader("n\t2147483648\n").Int("n", &narrow).Finish().IsCorruption());
  EXPECT_TRUE(MetaReader("n\t-7\n").Int("n", &narrow).Finish().ok());
  EXPECT_EQ(narrow, -7);
  bool flag = false;
  EXPECT_TRUE(MetaReader("f\t2\n").Bool("f", &flag).Finish().IsCorruption());
  double d = 0;
  EXPECT_TRUE(
      MetaReader("d\tnope\n").Double("d", &d).Finish().IsCorruption());
  // The first failure sticks: later reads do not mask it.
  int64_t a = 0;
  const Status status =
      MetaReader("d\tnope\na\t1\n").Double("d", &d).Int("a", &a).Finish();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("'d'"), std::string::npos)
      << status.ToString();
}

TEST(StatusSections, RoundTripEveryCodeAndRejectUnknownOnes) {
  for (int c = 0; c <= 255; ++c) {
    if (!IsValidStatusCode(c)) continue;
    const Status original(static_cast<StatusCode>(c),
                          std::string("why\0\n\tnot", 10));
    const std::vector<std::string> sections = EncodeStatus(original);
    ASSERT_EQ(sections.size(), 2u);
    Status back;
    ASSERT_TRUE(DecodeStatus(sections, &back).ok());
    EXPECT_EQ(back, original) << "code " << c;
  }
  EXPECT_EQ(EncodeStatus(Status::NotFound("x"))[0], "code\t2\n");
  Status back;
  for (const char* bad : {"code\t99\n", "code\t-1\n", "code\t1"})
    EXPECT_TRUE(DecodeStatus({bad, ""}, &back).IsCorruption()) << bad;
  EXPECT_TRUE(DecodeStatus({"code\t1\n"}, &back).IsCorruption());
}

}  // namespace
}  // namespace flor
