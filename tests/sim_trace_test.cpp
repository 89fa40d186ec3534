// Trace container: counters, summaries, overlap ratio, rendering, CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "sim/trace.hpp"

namespace rocqr::sim {
namespace {

TraceEvent make_event(std::int64_t id, OpKind kind, Resource res,
                      sim_time_t start, sim_time_t end, bytes_t bytes = 0,
                      flops_t flops = 0) {
  TraceEvent e;
  e.id = id;
  e.name = "op" + std::to_string(id);
  e.kind = kind;
  e.resource = res;
  e.stream = 0;
  e.start = start;
  e.end = end;
  e.bytes = bytes;
  e.flops = flops;
  return e;
}

TEST(Trace, CountersAccumulatePerDirection) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 100));
  t.add(make_event(1, OpKind::CopyD2H, Resource::D2H, 0, 1, 40));
  t.add(make_event(2, OpKind::CopyD2D, Resource::Compute, 1, 1.1, 7));
  t.add(make_event(3, OpKind::Gemm, Resource::Compute, 1.1, 2, 0, 1000));
  EXPECT_EQ(t.bytes_h2d(), 100);
  EXPECT_EQ(t.bytes_d2h(), 40);
  EXPECT_EQ(t.bytes_d2d(), 7);
  EXPECT_EQ(t.total_flops(), 1000);
  EXPECT_EQ(t.size(), 4u);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.bytes_h2d(), 0);
}

TEST(Trace, MakespanAndBusy) {
  Trace t;
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 2));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 5));
  t.add(make_event(2, OpKind::CopyH2D, Resource::H2D, 2, 3));
  EXPECT_DOUBLE_EQ(t.makespan(), 5.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::H2D), 3.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::Compute), 4.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(Resource::D2H), 0.0);
}

TEST(Trace, MakespanIsTheLargestEndInAnyAddOrder) {
  // The trace keeps its latest end as events arrive; engines finish out of
  // issue order, so the last event added need not end last.
  Trace t;
  t.add(make_event(0, OpKind::Gemm, Resource::Compute, 0, 7));
  t.add(make_event(1, OpKind::CopyH2D, Resource::H2D, 0, 2));
  EXPECT_DOUBLE_EQ(t.makespan(), 7.0);
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 7, 9.5));
  t.add(make_event(3, OpKind::CopyH2D, Resource::H2D, 2, 4));
  sim_time_t largest = 0;
  for (const TraceEvent& e : t.events()) largest = std::max(largest, e.end);
  EXPECT_DOUBLE_EQ(t.makespan(), largest);
  EXPECT_DOUBLE_EQ(t.makespan(), 9.5);
  t.clear();
  EXPECT_DOUBLE_EQ(t.makespan(), 0.0);
  t.add(make_event(4, OpKind::Gemm, Resource::Compute, 1, 3));
  EXPECT_DOUBLE_EQ(t.makespan(), 3.0);
}

TEST(Trace, OverlapRatioBounds) {
  Trace t;
  // Fully overlapped: copies hidden under one long gemm.
  t.add(make_event(0, OpKind::Gemm, Resource::Compute, 0, 10));
  t.add(make_event(1, OpKind::CopyH2D, Resource::H2D, 0, 4));
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 5, 8));
  EXPECT_DOUBLE_EQ(t.overlap_ratio(), 1.0);

  Trace s;
  // Fully serialized: copy then gemm, nothing hidden.
  s.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 4));
  s.add(make_event(1, OpKind::Gemm, Resource::Compute, 4, 10));
  EXPECT_DOUBLE_EQ(s.overlap_ratio(), 0.0);

  Trace empty;
  EXPECT_DOUBLE_EQ(empty.overlap_ratio(), 1.0);
}

TEST(Trace, RejectsNegativeDuration) {
  Trace t;
  EXPECT_THROW(t.add(make_event(0, OpKind::Gemm, Resource::Compute, 2, 1)),
               InvalidArgument);
}

TEST(Trace, SummarizeWindow) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 3, 0, 500));
  t.add(make_event(2, OpKind::CopyD2H, Resource::D2H, 3, 4, 20));
  t.add(make_event(3, OpKind::Gemm, Resource::Compute, 4, 9, 0, 700));

  const TraceSummary all = summarize(t);
  EXPECT_EQ(all.events, 4);
  EXPECT_DOUBLE_EQ(all.span(), 9.0);
  EXPECT_EQ(all.bytes_h2d, 10);
  EXPECT_EQ(all.bytes_d2h, 20);
  EXPECT_EQ(all.flops, 1200);
  EXPECT_DOUBLE_EQ(all.compute_seconds, 7.0);

  const TraceSummary tail = summarize(t, 2);
  EXPECT_EQ(tail.events, 2);
  EXPECT_DOUBLE_EQ(tail.first_start, 3.0);
  EXPECT_DOUBLE_EQ(tail.last_end, 9.0);
  EXPECT_EQ(tail.bytes_h2d, 0);
  EXPECT_EQ(tail.flops, 700);

  const TraceSummary window = summarize(t, 1, 3);
  EXPECT_EQ(window.events, 2);
  EXPECT_DOUBLE_EQ(window.span(), 3.0);

  const TraceSummary none = summarize(t, 4);
  EXPECT_EQ(none.events, 0);
  EXPECT_DOUBLE_EQ(none.span(), 0.0);
}

TEST(Trace, GanttRenderShowsLanesAndStats) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1, 3));
  t.add(make_event(2, OpKind::Panel, Resource::Compute, 3, 4));
  t.add(make_event(3, OpKind::CopyD2H, Resource::D2H, 3, 4, 5));
  const std::string g = t.render_gantt(60);
  EXPECT_NE(g.find("H2D"), std::string::npos);
  EXPECT_NE(g.find("Compute"), std::string::npos);
  EXPECT_NE(g.find("D2H"), std::string::npos);
  EXPECT_NE(g.find('G'), std::string::npos);
  EXPECT_NE(g.find('P'), std::string::npos);
  EXPECT_NE(g.find("makespan"), std::string::npos);
  EXPECT_THROW(t.render_gantt(2), InvalidArgument);
  Trace empty;
  EXPECT_NE(empty.render_gantt(50).find("empty"), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace t;
  t.add(make_event(0, OpKind::CopyH2D, Resource::H2D, 0, 1.5, 10));
  t.add(make_event(1, OpKind::Gemm, Resource::Compute, 1.5, 2, 0, 99));
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("id,name,kind,resource,stream,start,end,bytes,flops"),
            std::string::npos);
  EXPECT_NE(csv.find("copy_h2d"), std::string::npos);
  EXPECT_NE(csv.find("gemm"), std::string::npos);
  EXPECT_NE(csv.find("99"), std::string::npos);
}

TEST(Trace, EnumNames) {
  EXPECT_STREQ(to_string(Resource::H2D), "H2D");
  EXPECT_STREQ(to_string(Resource::Compute), "Compute");
  EXPECT_STREQ(to_string(Resource::D2H), "D2H");
  EXPECT_STREQ(to_string(OpKind::Panel), "panel_qr");
  EXPECT_STREQ(to_string(OpKind::CopyD2D), "copy_d2d");
}

} // namespace
} // namespace rocqr::sim
