// Tests for src/common: Status, Result, macros, random, string utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/macros.h"
#include "common/process.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fixy {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
  EXPECT_EQ(Status::InvalidArgument("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::InvalidArgument("negative volume");
  EXPECT_EQ(s.ToString(), "InvalidArgument: negative volume");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream os;
  os << Status::IoError("disk");
  EXPECT_EQ(os.str(), "IoError: disk");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrReturnsFallbackOnError) {
  Result<int> err = Status::Internal("x");
  EXPECT_EQ(err.value_or(-1), -1);
  Result<int> ok = 7;
  EXPECT_EQ(ok.value_or(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

Result<int> HelperReturnsError() { return Status::OutOfRange("nope"); }

Result<int> HelperUsesAssignOrReturn() {
  FIXY_ASSIGN_OR_RETURN(int v, HelperReturnsError());
  return v + 1;
}

Status HelperUsesReturnIfError() {
  FIXY_RETURN_IF_ERROR(Status::Ok());
  FIXY_RETURN_IF_ERROR(Status::IoError("late"));
  return Status::Ok();
}

TEST(MacrosTest, AssignOrReturnPropagatesError) {
  const Result<int> r = HelperUsesAssignOrReturn();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(MacrosTest, ReturnIfErrorPropagatesFirstError) {
  const Status s = HelperUsesReturnIfError();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleOutcome) {
  Rng rng(37);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(41);
  const int n = 50000;
  long total = 0;
  for (int i = 0; i < n; ++i) total += rng.Poisson(4.0);
  EXPECT_NEAR(static_cast<double>(total) / n, 4.0, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonLargeMeanUsesApproximation) {
  Rng rng(47);
  const int n = 20000;
  long total = 0;
  for (int i = 0; i < n; ++i) {
    const int x = rng.Poisson(50.0);
    EXPECT_GE(x, 0);
    total += x;
  }
  EXPECT_NEAR(static_cast<double>(total) / n, 50.0, 0.5);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.Split();
  // Child stream differs from the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.NextUint64() != child.NextUint64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(5);
  Rng b(5);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ca.NextUint64(), cb.NextUint64());
  }
}

// --------------------------------------------------------- string utils

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 7), "x=7");
  EXPECT_EQ(StrFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  const std::string big(5000, 'x');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StrSplit) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, StrSplitEmptyString) {
  const auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hi  "), "hi");
  EXPECT_EQ(StrTrim("\t\nx\r "), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("no-trim"), "no-trim");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilTest, DoubleToStringDropsTrailingZeros) {
  EXPECT_EQ(DoubleToString(3.5), "3.5");
  EXPECT_EQ(DoubleToString(2.0), "2");
  EXPECT_EQ(DoubleToString(0.125), "0.125");
}

// ----------------------------------------------------------------- Crc32

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // Sensitive to every byte.
  EXPECT_NE(Crc32("123456789"), Crc32("123456780"));
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(Crc32Test, StringViewOverloadAgreesWithPointerForm) {
  const std::string bytes = "fxb section payload \x00\xff\x7f";
  EXPECT_EQ(Crc32(bytes), Crc32(bytes.data(), bytes.size()));
}

// --------------------------------------------------------------- process

#if defined(__unix__) || defined(__APPLE__)

// Writing to a peer that already hung up must surface as an IoError, not
// a SIGPIPE that kills the process. This is the regression the shard
// worker, coordinator, and fixyd all depend on through IgnoreSigpipe():
// before the fix only the worker ignored SIGPIPE, so a coordinator (or
// daemon) writing to a dead peer died with the default signal action.
TEST(ProcessTest, WriteToDeadPeerFailsInsteadOfKillingTheProcess) {
  IgnoreSigpipe();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer hangs up

  // Large enough that the kernel cannot buffer it all even if the
  // first write squeaks through before the EPIPE materializes.
  const std::string payload(1 << 20, 'x');
  Status status = WriteAllFd(fds[0], payload);
  if (status.ok()) {
    // A second write after the hang-up is guaranteed to hit EPIPE.
    status = WriteAllFd(fds[0], payload);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
  ::close(fds[0]);
}

TEST(ProcessTest, IgnoreSigpipeIsIdempotent) {
  IgnoreSigpipe();
  IgnoreSigpipe();  // second call must be a harmless no-op
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  EXPECT_FALSE(WriteAllFd(fds[1], "boom").ok());
  ::close(fds[1]);
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace fixy
