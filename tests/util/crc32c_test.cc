#include "src/util/crc32c.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace lsmssd::crc32c {
namespace {

uint32_t ValueOf(const std::string& s) {
  return Value(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(Crc32cTest, StandardTestVector) {
  // The canonical CRC-32C check value ("123456789" -> 0xE3069283).
  EXPECT_EQ(ValueOf("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix B.4 vectors.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Value(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Value(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> incr(32);
  for (size_t i = 0; i < incr.size(); ++i) incr[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Value(incr.data(), incr.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInputIsZero) { EXPECT_EQ(Value(nullptr, 0), 0u); }

TEST(Crc32cTest, ExtendComposes) {
  const std::string whole = "hello, block device world";
  for (size_t split = 0; split <= whole.size(); ++split) {
    const uint32_t head =
        Value(reinterpret_cast<const uint8_t*>(whole.data()), split);
    const uint32_t both = Extend(
        head, reinterpret_cast<const uint8_t*>(whole.data()) + split,
        whole.size() - split);
    EXPECT_EQ(both, ValueOf(whole)) << "split at " << split;
  }
}

TEST(Crc32cTest, DistinguishesSingleBitFlips) {
  // Any single-bit flip in a block-sized buffer must change the CRC
  // (guaranteed by the polynomial's Hamming distance for these lengths).
  std::vector<uint8_t> buf(4096, 0x5A);
  const uint32_t base = Value(buf.data(), buf.size());
  for (size_t bit = 0; bit < buf.size() * 8; bit += 397) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Value(buf.data(), buf.size()), base) << "bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

TEST(Crc32cTest, UnalignedStartsAgree) {
  // Results must not depend on the buffer's alignment.
  std::vector<uint8_t> backing(64 + 15, 0);
  for (size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t want = Value(backing.data() + 0, 64);
  for (size_t off = 1; off < 8; ++off) {
    std::memmove(backing.data() + off, backing.data(), 64);
    EXPECT_EQ(Value(backing.data() + off, 64), want) << "offset " << off;
    std::memmove(backing.data(), backing.data() + off, 64);
  }
}

TEST(Crc32cTest, PortableAndHardwarePathsAgree) {
  // Both paths behind Extend, called directly: each must reproduce the
  // RFC 3720 appendix B.4 vectors, and they must agree on random buffers
  // of every length 0..300 at every start offset 0..7.
  using Path = uint32_t (*)(uint32_t, const uint8_t*, size_t);
  std::vector<std::pair<const char*, Path>> paths = {
      {"portable", &ExtendPortable}};
  if (HardwareAvailable()) {  // Else the CPU lacks SSE4.2 (or is not x86).
    paths.emplace_back("hardware", &ExtendHardware);
  }
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF), incr(32), decr(32);
  for (size_t i = 0; i < 32; ++i) {
    incr[i] = static_cast<uint8_t>(i);
    decr[i] = static_cast<uint8_t>(31 - i);
  }
  for (const auto& [name, path] : paths) {
    SCOPED_TRACE(name);
    EXPECT_EQ(path(0, zeros.data(), 32), 0x8A9136AAu);
    EXPECT_EQ(path(0, ones.data(), 32), 0x62A8AB43u);
    EXPECT_EQ(path(0, incr.data(), 32), 0x46DD794Eu);
    EXPECT_EQ(path(0, decr.data(), 32), 0x113FDB5Cu);
    EXPECT_EQ(path(0, reinterpret_cast<const uint8_t*>("123456789"), 9),
              0xE3069283u);
  }

  Random rng(20260417);
  std::vector<uint8_t> buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t seed = static_cast<uint32_t>(rng.Uniform(1ull << 32));
      const uint32_t want = ExtendPortable(seed, buf.data() + off, len);
      for (const auto& [name, path] : paths) {
        ASSERT_EQ(path(seed, buf.data() + off, len), want)
            << name << " offset " << off << " length " << len;
      }
      ASSERT_EQ(Extend(seed, buf.data() + off, len), want);
    }
  }
}

}  // namespace
}  // namespace lsmssd::crc32c
