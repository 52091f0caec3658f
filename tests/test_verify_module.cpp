// Direct tests of the routing verification report (the oracle other tests
// lean on deserves its own scrutiny).
#include "routing/verify.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/certificate.hpp"
#include "analysis/lints.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/minhop.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

TEST(VerifyModule, CountsTotalPaths) {
  Topology topo = make_ring(4, 2);  // 4 switches x 2 terminals
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  VerifyReport report = verify_routing(topo.net, out.table);
  // Per terminal: 3 foreign switches -> 8 * 3 = 24 (src switch, dst) pairs.
  EXPECT_EQ(report.total_paths, 24U);
  EXPECT_EQ(report.broken, 0U);
  EXPECT_EQ(report.non_minimal, 0U);
}

TEST(VerifyModule, DetectsBrokenEntries) {
  Topology topo = make_ring(4, 1);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  // Damage one entry: switch 0 loses its route to terminal 2.
  out.table.set_next(topo.net.switch_by_index(0),
                     topo.net.terminal_by_index(2), kInvalidChannel);
  VerifyReport report = verify_routing(topo.net, out.table);
  EXPECT_EQ(report.broken, 1U);
  EXPECT_FALSE(report.connected());
}

TEST(VerifyModule, DetectsNonMinimalPaths) {
  // Force the long way around a 5-ring for one (switch, dst) pair.
  Topology topo = make_ring(5, 1);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  const Network& net = topo.net;
  NodeId sw0 = net.switch_by_index(0);
  NodeId t2 = net.terminal_by_index(2);  // minimal from 0: 0-1-2, 2 hops
  // Redirect 0 -> 4; switch 4 routes on to 2 via 3 (its own minimal side),
  // so the path becomes 0-4-3-2: valid but 3 hops.
  ChannelId wrong = kInvalidChannel;
  for (ChannelId c : net.out_switch_channels(sw0)) {
    if (net.channel(c).dst == net.switch_by_index(4)) wrong = c;
  }
  ASSERT_NE(wrong, kInvalidChannel);
  out.table.set_next(sw0, t2, wrong);
  ASSERT_EQ(out.table.path_hops(topo.net, sw0, t2), 3);
  VerifyReport report = verify_routing(topo.net, out.table);
  EXPECT_TRUE(report.connected());
  EXPECT_EQ(report.non_minimal, 1U);
  EXPECT_FALSE(report.minimal());
}

TEST(VerifyModule, SkipsSwitchesWithoutTerminals) {
  // Spine switches originate no traffic; their (broken) entries are not
  // counted as paths.
  Topology topo = make_clos2(2, 1, 1, 2);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  VerifyReport report = verify_routing(topo.net, out.table);
  // Sources: 2 leaves x 4 terminals minus own-switch 2 each = 2 * 2 = 4.
  EXPECT_EQ(report.total_paths, 4U);
}

TEST(VerifyModule, HopOverDownedLinkIsBroken) {
  // A stale table that still forwards over a dead link must fail every
  // check that walks it, not only the reachability oracles.
  Topology topo = make_ring(6, 2);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  const CertificateResult cert = make_certificate(topo.net, out.table);
  ASSERT_TRUE(cert.ok);
  const NodeId sw0 = topo.net.switch_by_index(0);
  const NodeId t4 = topo.net.terminal_by_index(4);  // on switch 2
  const ChannelId hop = out.table.next(sw0, t4);
  ASSERT_NE(hop, kInvalidChannel);
  topo.net.set_link_up(hop, false);

  std::vector<ChannelId> seq;
  EXPECT_FALSE(out.table.extract_path(topo.net, sw0, t4, seq));
  const VerifyReport report = verify_routing(topo.net, out.table);
  EXPECT_GT(report.broken, 0U);
  // The certificate checker names the dead link, not "dead end or loop".
  const CertCheckResult check = check_certificate(topo.net, out.table, cert.cert);
  EXPECT_FALSE(check.ok);
  const Channel& down = topo.net.channel(hop);
  const std::string link = topo.net.node_name(down.src) + "->" +
                           topo.net.node_name(down.dst);
  const std::string back = topo.net.node_name(down.dst) + "->" +
                           topo.net.node_name(down.src);
  EXPECT_TRUE(check.error.find("crosses dead link " + link) !=
                  std::string::npos ||
              check.error.find("crosses dead link " + back) !=
                  std::string::npos)
      << check.error;
  EXPECT_GT(lint_routing(topo.net, out.table)
                .count(LintKind::kUnreachableDestination),
            0U);
  PathSet paths;
  std::vector<Layer> layers;
  EXPECT_THROW(collect_paths(topo.net, out.table, paths, layers),
               std::runtime_error);
}

}  // namespace
}  // namespace dfsssp
