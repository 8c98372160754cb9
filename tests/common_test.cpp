// Unit tests for src/common: Status, StatusOr, CRC32C, coding, Random,
// ZipfGenerator, SimClock.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/units.h"

namespace spf {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("checksum mismatch on page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "checksum mismatch on page 7");
  EXPECT_EQ(s.ToString(), "Corruption: checksum mismatch on page 7");
}

TEST(StatusTest, CopyIsCheap) {
  Status a = Status::IOError("x");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "x");
}

TEST(StatusTest, SinglePageFailureCandidates) {
  EXPECT_TRUE(Status::Corruption("").IsSinglePageFailureCandidate());
  EXPECT_TRUE(Status::ReadFailure("").IsSinglePageFailureCandidate());
  EXPECT_FALSE(Status::IOError("").IsSinglePageFailureCandidate());
  EXPECT_FALSE(Status::MediaFailure("").IsSinglePageFailureCandidate());
  EXPECT_FALSE(Status::OK().IsSinglePageFailureCandidate());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 12; ++c) {
    EXPECT_NE(Status::CodeName(static_cast<Status::Code>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 5);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  SPF_ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseAssignOrReturn(3, &out).IsInvalidArgument());
}

TEST(Crc32cTest, KnownProperties) {
  // Deterministic and sensitive to every byte.
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t c1 = crc32c::Value(data.data(), data.size());
  EXPECT_EQ(c1, crc32c::Value(data.data(), data.size()));
  data[10] ^= 1;
  EXPECT_NE(c1, crc32c::Value(data.data(), data.size()));
}

// Extend() takes the SSE4.2 path on CPUs that have it; the table path is
// reached directly through crc32c::internal so it stays covered there too.
TEST(Crc32cTest, StandardVector) {
  // CRC32C of 32 bytes of zeros (iSCSI test vector): 0x8a9136aa.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
  EXPECT_EQ(crc32c::internal::ExtendTable(0, zeros.data(), zeros.size()),
            0x8a9136aau);
  // CRC32C of "123456789" is 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  EXPECT_EQ(crc32c::internal::ExtendTable(0, "123456789", 9), 0xe3069283u);
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Random rnd(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rnd.Next());
  return out;
}

TEST(Crc32cTest, HardwareMatchesTable) {
  // Every length 0-300 at every start offset 0-7, then one 8 KiB page.
  const std::string buf = RandomBytes(300 + 8, 26);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n = 0; n <= 300; ++n) {
      const char* p = buf.data() + start;
      ASSERT_EQ(crc32c::Value(p, n), crc32c::internal::ExtendTable(0, p, n))
          << "start " << start << " length " << n;
      ASSERT_EQ(crc32c::Extend(0x12345678u, p, n),
                crc32c::internal::ExtendTable(0x12345678u, p, n))
          << "start " << start << " length " << n;
    }
  }
  const std::string page = RandomBytes(8192, 8192);
  EXPECT_EQ(crc32c::Value(page.data(), page.size()),
            crc32c::internal::ExtendTable(0, page.data(), page.size()));
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string buf = RandomBytes(64, 64);
  const uint32_t whole = crc32c::internal::ExtendTable(0, buf.data(), 64);
  for (size_t k = 0; k <= 64; ++k) {
    const uint32_t head = crc32c::Value(buf.data(), k);
    EXPECT_EQ(crc32c::Extend(head, buf.data() + k, 64 - k), whole)
        << "split at " << k;
    // The two paths can hand a running CRC to each other.
    const uint32_t table_head = crc32c::internal::ExtendTable(0, buf.data(), k);
    EXPECT_EQ(crc32c::Extend(table_head, buf.data() + k, 64 - k), whole)
        << "split at " << k;
    EXPECT_EQ(crc32c::internal::ExtendTable(head, buf.data() + k, 64 - k),
              whole)
        << "split at " << k;
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(v)), v);
    EXPECT_NE(crc32c::Mask(v), v);  // mask changes the value
  }
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefull);
  size_t off = 0;
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(buf, &off, &a));
  ASSERT_TRUE(GetFixed32(buf, &off, &b));
  ASSERT_TRUE(GetFixed64(buf, &off, &c));
  EXPECT_EQ(a, 0xbeef);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefull);
  EXPECT_EQ(off, buf.size());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "alpha");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'z'));
  size_t off = 0;
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &a));
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &b));
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &c));
  EXPECT_EQ(a, "alpha");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, TruncationDetected) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  size_t off = 0;
  std::string_view out;
  std::string_view truncated(buf.data(), buf.size() - 2);
  EXPECT_FALSE(GetLengthPrefixed(truncated, &off, &out));
  off = buf.size();  // nothing left
  EXPECT_FALSE(GetLengthPrefixed(buf, &off, &out));
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LT(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, NextStringHasRequestedLength) {
  Random rng(9);
  EXPECT_EQ(rng.NextString(0).size(), 0u);
  EXPECT_EQ(rng.NextString(17).size(), 17u);
  // Two draws differ with overwhelming probability.
  EXPECT_NE(rng.NextString(16), rng.NextString(16));
}

TEST(ZipfTest, StaysInRangeAndSkews) {
  const uint64_t n = 1000;
  ZipfGenerator zipf(n, 0.99, 1);
  std::vector<uint64_t> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, n);
    counts[v]++;
  }
  // The most popular item must dominate the median item by a wide margin.
  EXPECT_GT(counts[0], 50u * std::max<uint64_t>(counts[500], 1));
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  const uint64_t n = 10;
  ZipfGenerator zipf(n, 0.0, 3);
  std::vector<uint64_t> counts(n, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Next()]++;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_GT(counts[i], kDraws / n / 2) << "bucket " << i;
    EXPECT_LT(counts[i], kDraws * 2 / n) << "bucket " << i;
  }
}

TEST(SimClockTest, AdvancesAndConverts) {
  SimClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(500);
  clock.AdvanceMicros(2);
  clock.AdvanceMillis(1);
  EXPECT_EQ(clock.NowNanos(), 500u + 2000u + 1000000u);
  EXPECT_NEAR(clock.NowSeconds(), 1.0025e-3, 1e-9);
  clock.Reset();
  EXPECT_EQ(clock.NowNanos(), 0u);
}

TEST(SimClockTest, ThreadSafeAccumulation) {
  SimClock clock;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&clock] {
      for (int i = 0; i < 10000; ++i) clock.AdvanceNanos(3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(clock.NowNanos(), 8u * 10000u * 3u);
}

TEST(SimTimerTest, MeasuresScope) {
  SimClock clock;
  clock.AdvanceNanos(100);
  SimTimer timer(&clock);
  clock.AdvanceNanos(250);
  EXPECT_EQ(timer.ElapsedNanos(), 250u);
}

TEST(UnitsTest, Arithmetic) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGB / kMB, 1000u);
  EXPECT_EQ(kSecond, 1000u * 1000u * 1000u);
}

}  // namespace
}  // namespace spf
