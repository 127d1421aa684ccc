#include "temporal/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"

namespace tgm {
namespace {

TEST(IoTest, GraphRoundTrip) {
  LabelDict dict;
  LabelId a = dict.Intern("proc:bash");
  LabelId b = dict.Intern("file:/etc/passwd");
  LabelId op = dict.Intern("op:read");
  TemporalGraph g;
  g.AddNode(a);
  g.AddNode(b);
  g.AddEdge(1, 0, 100, op);
  g.AddEdge(1, 0, 250, op);
  g.Finalize();

  std::stringstream ss;
  WriteTemporalGraph(ss, g, dict);
  LabelDict dict2;
  auto back = ParseTemporalGraph(ss, dict2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_count(), 2u);
  EXPECT_EQ(back->edge_count(), 2u);
  EXPECT_EQ(dict2.Name(back->label(0)), "proc:bash");
  EXPECT_EQ(back->edge(0).ts, 100);
  EXPECT_EQ(back->edge(1).ts, 250);
  EXPECT_EQ(dict2.Name(back->edge(0).elabel), "op:read");
}

TEST(IoTest, GraphRoundTripPreservesMatching) {
  std::mt19937_64 rng(3);
  LabelDict dict;
  for (int i = 0; i < 8; ++i) dict.Intern("L" + std::to_string(i));
  TemporalGraph g = tgm::testing::RandomGraph(rng, 6, 12, 4);
  std::stringstream ss;
  WriteTemporalGraph(ss, g, dict);
  LabelDict dict2;
  for (int i = 0; i < 8; ++i) dict2.Intern("L" + std::to_string(i));
  auto back = ParseTemporalGraph(ss, dict2);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->edge_count(), g.edge_count());
  for (std::size_t i = 0; i < g.edge_count(); ++i) {
    EXPECT_EQ(back->edge(static_cast<EdgePos>(i)),
              g.edge(static_cast<EdgePos>(i)));
  }
}

TEST(IoTest, PatternRoundTrip) {
  LabelDict dict;
  LabelId a = dict.Intern("alert:cpu");
  LabelId b = dict.Intern("alert:io");
  Pattern p = Pattern::SingleEdge(a, b).GrowForward(1, a).GrowInward(0, 1);
  std::stringstream ss;
  WritePattern(ss, p, dict);
  LabelDict dict2;
  auto back = ParsePattern(ss, dict2);
  ASSERT_TRUE(back.ok());
  // Same structure under re-interned labels.
  EXPECT_EQ(back->node_count(), p.node_count());
  EXPECT_EQ(back->edge_count(), p.edge_count());
  for (std::size_t i = 0; i < p.edge_count(); ++i) {
    EXPECT_EQ(back->edge(i).src, p.edge(i).src);
    EXPECT_EQ(back->edge(i).dst, p.edge(i).dst);
  }
  EXPECT_EQ(dict2.Name(back->label(0)), "alert:cpu");
}

TEST(IoTest, RejectsBadHeader) {
  std::stringstream ss("garbage 1 1\n");
  LabelDict dict;
  EXPECT_FALSE(ParseTemporalGraph(ss, dict).ok());
  std::stringstream ss2("tgraph\n");
  EXPECT_FALSE(ParseTemporalGraph(ss2, dict).ok());
}

TEST(IoTest, RejectsOutOfRangeNodeIds) {
  std::stringstream ss("tgraph 1 1\nn A\ne 0 7 5 <none>\n");
  LabelDict dict;
  EXPECT_FALSE(ParseTemporalGraph(ss, dict).ok());
}

TEST(IoTest, RejectsTruncatedInput) {
  std::stringstream ss("tgraph 2 2\nn A\nn B\ne 0 1 5 <none>\n");
  LabelDict dict;
  EXPECT_FALSE(ParseTemporalGraph(ss, dict).ok());
}

TEST(IoTest, PatternDotRendering) {
  LabelDict dict;
  LabelId a = dict.Intern("proc:sshd");
  LabelId b = dict.Intern("file:\"quoted\"");
  LabelId op = dict.Intern("op:read");
  Pattern p = Pattern::SingleEdge(a, b, op);
  std::string dot = PatternToDot(p, dict, "q");
  EXPECT_NE(dot.find("digraph \"q\""), std::string::npos);
  EXPECT_NE(dot.find("proc:sshd"), std::string::npos);
  EXPECT_NE(dot.find("\\\"quoted\\\""), std::string::npos);  // escaped
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("1: op:read"), std::string::npos);
}

TEST(IoTest, TemporalGraphDotRendering) {
  LabelDict dict;
  LabelId a = dict.Intern("A");
  LabelId b = dict.Intern("B");
  TemporalGraph g;
  g.AddNode(a);
  g.AddNode(b);
  g.AddEdge(0, 1, 42);
  g.Finalize();
  std::string dot = TemporalGraphToDot(g, dict);
  EXPECT_NE(dot.find("t=42"), std::string::npos);
}

TEST(IoTest, ParseDiagnosticsAreLineNumbered) {
  // The StatusOr parsers point at the offending line.
  LabelDict dict;

  std::stringstream bad_header("garbage 1 1\n");
  StatusOr<TemporalGraph> r1 = ParseTemporalGraph(bad_header, dict);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r1.status().message().find("line 1"), std::string::npos);

  std::stringstream bad_node_tag("tgraph 1 0\nx A\n");
  StatusOr<TemporalGraph> r2 = ParseTemporalGraph(bad_node_tag, dict);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("line 2"), std::string::npos);

  std::stringstream out_of_range("tgraph 2 1\nn A\nn B\ne 0 7 5 <none>\n");
  StatusOr<TemporalGraph> r3 = ParseTemporalGraph(out_of_range, dict);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(r3.status().message().find("out of range"), std::string::npos);

  std::stringstream negative_ts("tgraph 2 1\nn A\nn B\ne 0 1 -3 <none>\n");
  StatusOr<TemporalGraph> r4 = ParseTemporalGraph(negative_ts, dict);
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(r4.status().message().find("negative timestamp"),
            std::string::npos);

  // Trailing tokens on a record line are malformed, not silently eaten.
  std::stringstream trailing("tgraph 2 1\nn A\nn B\ne 0 1 5 <none> junk\n");
  StatusOr<TemporalGraph> r5 = ParseTemporalGraph(trailing, dict);
  ASSERT_FALSE(r5.ok());
  EXPECT_NE(r5.status().message().find("line 4"), std::string::npos);

  std::stringstream truncated("tgraph 2 2\nn A\nn B\ne 0 1 5 <none>\n");
  StatusOr<TemporalGraph> r6 = ParseTemporalGraph(truncated, dict);
  ASSERT_FALSE(r6.ok());
  EXPECT_NE(r6.status().message().find("end of input"), std::string::npos);
}

TEST(IoTest, ParsePatternDiagnostics) {
  LabelDict dict;
  // Edges must reference declared nodes.
  std::stringstream bad("tpattern 2 1\nn A\nn B\ne 0 9 <none>\n");
  StatusOr<Pattern> r1 = ParsePattern(bad, dict);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r1.status().message().find("line 4"), std::string::npos);

  // A pattern that is not T-connected is rejected with a reason, not a
  // bare nullopt.
  std::stringstream disconnected(
      "tpattern 4 2\nn A\nn B\nn C\nn D\ne 0 1 <none>\ne 2 3 <none>\n");
  StatusOr<Pattern> r2 = ParsePattern(disconnected, dict);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("T-connected"), std::string::npos);

  std::stringstream empty("tpattern 1 0\nn A\n");
  StatusOr<Pattern> r3 = ParsePattern(empty, dict);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("at least one edge"),
            std::string::npos);
}

TEST(IoTest, ParserAcceptsBlankLinesAndCarriageReturns) {
  LabelDict dict;
  std::stringstream ss(
      "\r\n\ntgraph 2 1\r\nn A\r\n\nn B\r\ne 0 1 5 <none>\r\n");
  StatusOr<TemporalGraph> parsed = ParseTemporalGraph(ss, dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->node_count(), 2u);
  EXPECT_EQ(parsed->edge(0).ts, 5);
  EXPECT_EQ(dict.Name(parsed->label(0)), "A");
}

TEST(IoTest, MultiplePatternsInOneStream) {
  LabelDict dict;
  LabelId a = dict.Intern("x");
  LabelId b = dict.Intern("y");
  Pattern p1 = Pattern::SingleEdge(a, b);
  Pattern p2 = Pattern::SingleEdge(b, a).GrowForward(1, b);
  std::stringstream ss;
  WritePattern(ss, p1, dict);
  WritePattern(ss, p2, dict);
  LabelDict dict2;
  auto r1 = ParsePattern(ss, dict2);
  auto r2 = ParsePattern(ss, dict2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->edge_count(), 1u);
  EXPECT_EQ(r2->edge_count(), 2u);
}

}  // namespace
}  // namespace tgm
