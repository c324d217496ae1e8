#include <gtest/gtest.h>

#include <string>

#include "server/discovery_service.h"
#include "server/http.h"
#include "server/job_manager.h"
#include "util/config_file.h"

namespace kgfd {
namespace {

// ------------------------------------------------------- message framing

TEST(HttpMessageTest, HeaderEndFindsCrlfAndBareLfTerminators) {
  EXPECT_EQ(HttpHeaderEnd("GET / HTTP/1.1\r\nhost: x\r\n\r\nbody"), 27u);
  EXPECT_EQ(HttpHeaderEnd("GET / HTTP/1.1\nhost: x\n\nbody"), 24u);
  EXPECT_EQ(HttpHeaderEnd("GET / HTTP/1.1\r\nhost: x\r\n"),
            std::string::npos);
  EXPECT_EQ(HttpHeaderEnd(""), std::string::npos);
}

TEST(HttpMessageTest, ContentLengthParsesAndRejectsGarbage) {
  std::map<std::string, std::string> headers;
  EXPECT_EQ(HttpContentLength(headers).value(), 0u);  // absent = no body
  headers["content-length"] = "123";
  EXPECT_EQ(HttpContentLength(headers).value(), 123u);
  headers["content-length"] = "12x";
  EXPECT_FALSE(HttpContentLength(headers).ok());
  headers["content-length"] = "-5";
  EXPECT_FALSE(HttpContentLength(headers).ok());
  headers["content-length"] = "99999999999999999999999";  // > uint64
  EXPECT_FALSE(HttpContentLength(headers).ok());
}

TEST(HttpMessageTest, RequestRoundTripsThroughSerializeAndParse) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/jobs";
  request.body = "data.dir = d\nmodel.checkpoint = m\n";
  request.headers["host"] = "127.0.0.1:80";

  const auto parsed = ParseHttpRequest(SerializeHttpRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().method, "POST");
  EXPECT_EQ(parsed.value().target, "/jobs");
  EXPECT_EQ(parsed.value().body, request.body);
  EXPECT_EQ(parsed.value().headers.at("host"), "127.0.0.1:80");
  EXPECT_EQ(parsed.value().headers.at("connection"), "close");
}

TEST(HttpMessageTest, ResponseRoundTripsThroughSerializeAndParse) {
  HttpResponse response;
  response.status_code = 429;
  response.body = "job queue full\n";

  const auto parsed = ParseHttpResponse(SerializeHttpResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().status_code, 429);
  EXPECT_EQ(parsed.value().body, "job queue full\n");
}

TEST(HttpMessageTest, ParseRejectsMalformedRequests) {
  EXPECT_FALSE(ParseHttpRequest("").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /\r\n\r\n").ok());         // 2 parts
  EXPECT_FALSE(ParseHttpRequest("GET x HTTP/1.1\r\n\r\n").ok());  // no slash
  EXPECT_FALSE(ParseHttpRequest("GET / SPDY/3\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nbadheader\r\n\r\n").ok());
  // Body shorter than the declared Content-Length is a framing error.
  EXPECT_FALSE(
      ParseHttpRequest("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nab")
          .ok());
}

TEST(HttpMessageTest, HeadOnlyParseIgnoresMissingBody) {
  // The server frames incrementally: it must learn Content-Length from the
  // head while the body is still in flight.
  const auto head = ParseHttpRequestHead(
      "POST /jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\n");
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head.value().method, "POST");
  EXPECT_EQ(HttpContentLength(head.value().headers).value(), 10u);
  EXPECT_TRUE(head.value().body.empty());
}

TEST(HttpMessageTest, HeaderNamesAreLowercasedAndTrimmed) {
  const auto parsed = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Type:  text/plain \r\n\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().headers.at("content-type"), "text/plain");
}

TEST(HttpMessageTest, StatusMappingCoversServiceCodes) {
  EXPECT_EQ(HttpStatusFromStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusFromStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusFromStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusFromStatus(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpStatusFromStatus(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpStatusFromStatus(Status::Internal("x")), 500);
}

TEST(HttpMessageTest, ErrorBodiesGetTrailingNewline) {
  EXPECT_EQ(TextResponse(404, "not found").body, "not found\n");
  EXPECT_EQ(TextResponse(200, "j1").body, "j1");  // 2xx left untouched
}

// ------------------------------------------------------ job submissions

TEST(JobRequestTest, ParsesDiscoverJobWithDefaults) {
  const auto request = JobRequest::Parse(
      "data.dir = data\n"
      "model.checkpoint = model.bin\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().data_dir, "data");
  EXPECT_EQ(request.value().checkpoint, "model.bin");
  // Defaults must match `kgfd_cli discover` so both front ends produce
  // identical facts from identical inputs.
  EXPECT_EQ(request.value().discovery.top_n, 500u);
  EXPECT_EQ(request.value().discovery.max_candidates, 500u);
  // (DefaultSamplingStrategy, not a literal: both front ends honor
  // KGFD_DEFAULT_STRATEGY, which the ADAPTIVE CI leg sets suite-wide.)
  EXPECT_EQ(request.value().discovery.strategy, DefaultSamplingStrategy());
  EXPECT_TRUE(request.value().discovery.filtered_ranking);
  EXPECT_EQ(request.value().discovery.seed, 123u);
  EXPECT_EQ(request.value().deadline_s, 0.0);
}

TEST(JobRequestTest, ParsesExplicitDiscoveryKeys) {
  const auto request = JobRequest::Parse(
      "job.kind = discover\n"
      "data.dir = d\n"
      "model.checkpoint = m\n"
      "discovery.strategy = UNIFORM_RANDOM\n"
      "discovery.top_n = 50\n"
      "discovery.max_candidates = 80\n"
      "discovery.seed = 9\n"
      "deadline_s = 2.5\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().discovery.strategy,
            SamplingStrategy::kUniformRandom);
  EXPECT_EQ(request.value().discovery.top_n, 50u);
  EXPECT_EQ(request.value().discovery.max_candidates, 80u);
  EXPECT_EQ(request.value().discovery.seed, 9u);
  EXPECT_EQ(request.value().deadline_s, 2.5);
}

TEST(JobRequestTest, RejectsBadSubmissions) {
  // Missing requireds.
  EXPECT_FALSE(JobRequest::Parse("").ok());
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n").ok());
  EXPECT_FALSE(JobRequest::Parse("model.checkpoint = m\n").ok());
  // Unknown kind.
  EXPECT_FALSE(JobRequest::Parse("job.kind = teleport\n").ok());
  // Unknown key (typo safety).
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n"
                                 "model.checkpoint = m\n"
                                 "discovery.topn = 50\n")
                   .ok());
  // Non-positive numerics must not wrap through the size_t cast.
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n"
                                 "model.checkpoint = m\n"
                                 "discovery.top_n = 0\n")
                   .ok());
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n"
                                 "model.checkpoint = m\n"
                                 "discovery.max_candidates = -3\n")
                   .ok());
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n"
                                 "model.checkpoint = m\n"
                                 "deadline_s = -1\n")
                   .ok());
  // Unknown strategy name.
  EXPECT_FALSE(JobRequest::Parse("data.dir = d\n"
                                 "model.checkpoint = m\n"
                                 "discovery.strategy = CLAIRVOYANT\n")
                   .ok());
}

TEST(JobRequestTest, RunKindIsRejectedNamingKgfdCliRun) {
  // The server runs discover jobs only; a full pipeline body, even a
  // valid one, is refused with a pointer to the CLI that runs it.
  const auto run = JobRequest::Parse("job.kind = run\n"
                                     "dataset.preset = FB15K-237\n"
                                     "model.type = TransE\n"
                                     "train.epochs = 1\n");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("kgfd_cli run --config"),
            std::string::npos)
      << run.status().ToString();
  // `job.kind = discover` stays accepted, so existing bodies still parse.
  EXPECT_TRUE(JobRequest::Parse("job.kind = discover\n"
                                "data.dir = d\n"
                                "model.checkpoint = m\n")
                  .ok());
}

TEST(JobStateTest, NamesAreStable) {
  EXPECT_STREQ(JobStateName(JobState::kQueued), "queued");
  EXPECT_STREQ(JobStateName(JobState::kRunning), "running");
  EXPECT_STREQ(JobStateName(JobState::kDone), "done");
  EXPECT_STREQ(JobStateName(JobState::kCancelled), "cancelled");
  EXPECT_STREQ(JobStateName(JobState::kDeadline), "deadline");
  EXPECT_STREQ(JobStateName(JobState::kFailed), "failed");
}

TEST(JobStatusTextTest, RendersConfigGrammarAndFlattensErrors) {
  JobStatus status;
  status.id = "j7";
  status.state = JobState::kFailed;
  status.relations_total = 4;
  status.relations_done = 2;
  status.error = "line one\nline two";

  const std::string text = FormatJobStatusText(status);
  // The body is valid config-file text: machine-readable with the repo's
  // own parser.
  const auto parsed = ConfigFile::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(parsed.value().GetString("id", ""), "j7");
  EXPECT_EQ(parsed.value().GetString("state", ""), "failed");
  EXPECT_EQ(parsed.value().GetInt("relations_done", -1).value(), 2);
  EXPECT_EQ(parsed.value().GetString("error", ""), "line one line two");
}

}  // namespace
}  // namespace kgfd
