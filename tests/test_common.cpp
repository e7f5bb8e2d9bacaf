// Tests for the common kernel: errors, results, RNG, byte codec,
// strings, virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"

namespace vp {
namespace {

// ---------------------------------------------------------------- Error

TEST(Error, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kScriptError), "SCRIPT_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "PARSE_ERROR");
}

TEST(Error, DefaultStatusIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Error, StatusCarriesCodeAndMessage) {
  Status status(StatusCode::kTimeout, "deadline exceeded");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(status.message(), "deadline exceeded");
  EXPECT_EQ(status.ToString(), "TIMEOUT: deadline exceeded");
}

TEST(Error, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_EQ(r.code(), StatusCode::kOk);
}

TEST(Error, ResultHoldsError) {
  Result<int> r = NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_FALSE(r.status().ok());
}

TEST(Error, ResultTakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  VP_ASSIGN_OR_RETURN(int half, Half(x));
  VP_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(Error, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2=3 is odd
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of 3..7 hit in 1000 draws
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0;
  double sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  // Child stream differs from where the parent continues.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // overwhelmingly likely with this seed
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, BoolProbability) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

// Jump-ahead. Polynomials over GF(2) of degree < 256 are four words,
// bit b of word w the coefficient of x^(64w+b); x^256 is implicit.
using Poly = std::array<uint64_t, 4>;

// The characteristic polynomial of xoshiro256's step, less its x^256
// term, found by Berlekamp–Massey from one state bit's sequence: the
// step has period 2^256 - 1, so that sequence's minimal polynomial is
// the step's characteristic polynomial.
Poly CharacteristicPolynomial() {
  Rng rng = Rng::FromState({0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL,
                            0x13579BDF2468ACE0ULL, 0x0F1E2D3C4B5A6978ULL});
  std::vector<int> bits;
  for (int i = 0; i < 1024; ++i) {
    bits.push_back(static_cast<int>(rng.State()[0] & 1));
    rng.NextU64();
  }
  // Connection polynomial C(x) = 1 + c1·x + ... + cL·x^L.
  std::vector<int> c(bits.size() + 1, 0);
  std::vector<int> b(bits.size() + 1, 0);
  c[0] = b[0] = 1;
  size_t length = 0;
  size_t m = 1;
  for (size_t n = 0; n < bits.size(); ++n) {
    int discrepancy = bits[n];
    for (size_t i = 1; i <= length; ++i) discrepancy ^= c[i] & bits[n - i];
    if (discrepancy == 0) {
      ++m;
      continue;
    }
    const std::vector<int> previous = c;
    for (size_t i = 0; i + m < c.size(); ++i) c[i + m] ^= b[i];
    if (2 * length <= n) {
      length = n + 1 - length;
      b = previous;
      m = 1;
    } else {
      ++m;
    }
  }
  EXPECT_EQ(length, 256u);
  // p(x) = x^256·C(1/x): the coefficient of x^(256 - i) is c_i.
  Poly p{};
  for (size_t i = 1; i <= 256; ++i) {
    const size_t degree = 256 - i;
    if (c[i] != 0) p[degree / 64] |= uint64_t{1} << (degree % 64);
  }
  return p;
}

// a·b mod (x^256 + low), by Horner's rule over a's bits.
Poly MulMod(const Poly& a, const Poly& b, const Poly& low) {
  Poly r{};
  for (int bit = 255; bit >= 0; --bit) {
    const bool carry = (r[3] >> 63) != 0;
    for (int w = 3; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
    r[0] <<= 1;
    if (carry) {
      for (int w = 0; w < 4; ++w) r[w] ^= low[w];
    }
    if ((a[bit / 64] >> (bit % 64)) & 1) {
      for (int w = 0; w < 4; ++w) r[w] ^= b[w];
    }
  }
  return r;
}

TEST(Rng, FromStateContinuesTheStream) {
  Rng rng(99);
  rng.NextU64();
  Rng copy = Rng::FromState(rng.State());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(copy.NextU64(), rng.NextU64());
}

TEST(Rng, JumpTableIsRepeatedSquaringModTheCharacteristicPolynomial) {
  const Poly low = CharacteristicPolynomial();
  // x^256 ≡ low (mod p); each further entry squares the previous one.
  Poly power = low;
  const std::span<const std::array<uint64_t, 4>> table = JumpTable();
  ASSERT_EQ(table.size(), size_t{64 - kJumpTableFirstPower});
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i], power) << "x^(2^" << i + kJumpTableFirstPower << ")";
    power = MulMod(power, power, low);
  }
  // The reference implementation's jump() and long_jump() constants are
  // x^(2^128) and x^(2^192).
  for (int i = 64; i < 128; ++i) power = MulMod(power, power, low);
  EXPECT_EQ(power, (Poly{0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
                         0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL}));
  for (int i = 128; i < 192; ++i) power = MulMod(power, power, low);
  EXPECT_EQ(power, (Poly{0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL,
                         0x77710069854EE241ULL, 0x39109BB02ACBE635ULL}));
}

TEST(Rng, JumpEqualsStepping) {
  std::vector<uint64_t> counts = {0, 1, 2};
  for (int k = 2; k <= 20; ++k) {
    const uint64_t power = uint64_t{1} << k;
    counts.insert(counts.end(), {power - 1, power, power + 1});
  }
  std::sort(counts.begin(), counts.end());
  Rng states(31337);
  std::vector<Rng> starts = {Rng(1), Rng(20261019)};
  for (int i = 0; i < 3; ++i) {
    starts.push_back(Rng::FromState({states.NextU64(), states.NextU64(),
                                     states.NextU64(), states.NextU64()}));
  }
  for (const Rng& start : starts) {
    Rng stepped = start;
    uint64_t steps = 0;
    for (const uint64_t n : counts) {
      for (; steps < n; ++steps) stepped.NextU64();
      Rng jumped = start;
      jumped.Jump(n);
      ASSERT_EQ(jumped.State(), stepped.State()) << "n = " << n;
      ASSERT_EQ(jumped.NextU64(), Rng(stepped).NextU64());
    }
  }
}

TEST(Rng, JumpsCompose) {
  Rng draws(4242);
  for (int i = 0; i < 40; ++i) {
    // a + b stays below 2^64.
    const uint64_t a = draws.NextU64() >> (1 + i % 40);
    const uint64_t b = draws.NextU64() >> 1;
    const Rng start = Rng::FromState({draws.NextU64(), draws.NextU64(),
                                      draws.NextU64(), draws.NextU64()});
    Rng twice = start;
    twice.Jump(a);
    twice.Jump(b);
    Rng once = start;
    once.Jump(a + b);
    ASSERT_EQ(twice.State(), once.State()) << a << " + " << b;
  }
}

// ---------------------------------------------------------------- Bytes

TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  w.WriteF64(3.14159);
  w.WriteString("hello");
  w.WriteBytes(Bytes{1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.14159);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, ReadPastEndFails) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadU16().ok());
  EXPECT_FALSE(r.ReadU8().ok());
  EXPECT_EQ(r.ReadU32().code(), StatusCode::kParseError);
}

TEST(Bytes, TruncatedStringFails) {
  ByteWriter w;
  w.WriteString("hello world");
  Bytes data = w.Take();
  data.resize(data.size() - 3);
  ByteReader r(data);
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(Bytes, EmptyStringAndBlob) {
  ByteWriter w;
  w.WriteString("");
  w.WriteBytes(Bytes{});
  ByteReader r(w.data());
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(r.ReadBytes()->empty());
}

TEST(Bytes, Fnv1aDistinguishesContent) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 4};
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
  EXPECT_EQ(Fnv1a(a), Fnv1a(Bytes{1, 2, 3}));
}

TEST(Bytes, HexDumpTruncates) {
  Bytes data(100, 0xFF);
  const std::string dump = HexDump(data, 4);
  EXPECT_EQ(dump, "ff ff ff ff …");
}

// -------------------------------------------------------------- Strings

TEST(Strings, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t\nx"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("tcp://host", "tcp://"));
  EXPECT_FALSE(StartsWith("tc", "tcp"));
  EXPECT_TRUE(EndsWith("module.js", ".js"));
  EXPECT_FALSE(EndsWith("js", ".js"));
}

TEST(Strings, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Format("%d-%s", 7, "x"), "7-x");
}

TEST(Strings, ToLower) { EXPECT_EQ(ToLower("MiXeD"), "mixed"); }

// ----------------------------------------------------------------- Time

TEST(Time, DurationArithmetic) {
  const Duration d = Duration::Millis(1.5) + Duration::Micros(500);
  EXPECT_EQ(d.micros(), 2000);
  EXPECT_DOUBLE_EQ(d.millis(), 2.0);
  EXPECT_DOUBLE_EQ((d * 2.0).millis(), 4.0);
  EXPECT_DOUBLE_EQ((d / 2.0).millis(), 1.0);
  EXPECT_LT(Duration::Zero(), d);
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t0 = TimePoint::FromMicros(1000);
  const TimePoint t1 = t0 + Duration::Millis(2);
  EXPECT_EQ((t1 - t0).micros(), 2000);
  EXPECT_EQ((t1 - Duration::Millis(2)), t0);
  EXPECT_GT(t1, t0);
}

TEST(Time, ToStringFormats) {
  EXPECT_EQ(Duration::Millis(12.345).ToString(), "12.345ms");
  EXPECT_EQ(Duration::Seconds(1.2).ToString(), "1.200s");
}

}  // namespace
}  // namespace vp
