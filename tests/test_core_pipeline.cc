// Achilles reproduction -- tests.
//
// Core pipeline tests: client predicate extraction, the differentFrom
// matrix on the paper's Figure 5 example, and the end-to-end toy system
// from Section 2 (the negative-address READ Trojan), and the negate
// counters in the run report.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/achilles.h"
#include "core/report.h"
#include "proto/synth/synth_family.h"
#include "proto/toy/toy_protocol.h"
#include "smt/eval.h"

namespace achilles {
namespace core {
namespace {

using smt::CheckResult;
using smt::ExprContext;
using smt::ExprRef;
using smt::Solver;

class ToyPipelineTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Solver solver{&ctx};
};

TEST_F(ToyPipelineTest, ClientPredicateHasReadAndWritePaths)
{
    const symexec::Program client = toy::MakeClient();
    const MessageLayout layout = toy::MakeLayout();
    ClientPredicate pc =
        ExtractClientPredicate(&ctx, &solver, {&client}, layout);

    // Figure 5: two client path predicates, one READ and one WRITE.
    ASSERT_EQ(pc.paths.size(), 2u);
    std::vector<uint64_t> requests;
    for (const auto &pred : pc.paths) {
        ASSERT_TRUE(pred.bytes[toy::kOffRequest]->IsConst())
            << "request header must be concrete (control-flow dependent)";
        requests.push_back(pred.bytes[toy::kOffRequest]->ConstValue());
        // The address byte is symbolic with range constraints.
        EXPECT_FALSE(pred.bytes[toy::kOffAddress]->IsConst());
        EXPECT_FALSE(pred.constraints.empty());
    }
    std::sort(requests.begin(), requests.end());
    EXPECT_EQ(requests, (std::vector<uint64_t>{toy::kRead, toy::kWrite}));
}

TEST_F(ToyPipelineTest, DifferentFromMatchesPaperExample)
{
    // Paper Section 3.3: differentFrom[READ][WRITE][request] == TRUE
    // (READ's request value 1 is not attainable by the WRITE path), but
    // differentFrom[READ][WRITE][address] == FALSE (same address range).
    const symexec::Program client = toy::MakeClient();
    const MessageLayout layout = toy::MakeLayout(/*mask_crc=*/true);
    ClientPredicate pc =
        ExtractClientPredicate(&ctx, &solver, {&client}, layout);
    ASSERT_EQ(pc.paths.size(), 2u);

    std::vector<ExprRef> msg;
    for (uint32_t i = 0; i < layout.length(); ++i)
        msg.push_back(ctx.FreshVar("msg", 8));
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(pc.paths, &negate_op);

    EXPECT_TRUE(matrix.IsIndependentField("request"));
    EXPECT_TRUE(matrix.IsIndependentField("address"));

    const size_t read_i =
        pc.paths[0].bytes[toy::kOffRequest]->ConstValue() == toy::kRead
            ? 0 : 1;
    const size_t write_i = 1 - read_i;
    EXPECT_TRUE(matrix.Different(read_i, write_i, "request"));
    EXPECT_TRUE(matrix.Different(write_i, read_i, "request"));
    EXPECT_FALSE(matrix.Different(read_i, write_i, "address"));
    EXPECT_FALSE(matrix.Different(write_i, read_i, "address"));
}

TEST_F(ToyPipelineTest, CrcFieldIsDependent)
{
    // The crc is an expression over the other fields' variables, so it
    // must be classified dependent (and excluded from the matrix).
    const symexec::Program client = toy::MakeClient();
    const MessageLayout layout = toy::MakeLayout(/*mask_crc=*/false);
    ClientPredicate pc =
        ExtractClientPredicate(&ctx, &solver, {&client}, layout);
    std::vector<ExprRef> msg;
    for (uint32_t i = 0; i < layout.length(); ++i)
        msg.push_back(ctx.FreshVar("msg", 8));
    NegateOperator negate_op(&ctx, &solver, &layout, msg);
    DifferentFromMatrix matrix(&ctx, &solver, &layout);
    matrix.Compute(pc.paths, &negate_op);
    EXPECT_FALSE(matrix.IsIndependentField("crc"));
    // address shares variables with crc -> also dependent now.
    EXPECT_FALSE(matrix.IsIndependentField("address"));
    // request is concrete in every path -> still independent.
    EXPECT_TRUE(matrix.IsIndependentField("request"));
}

/** Ground truth for the toy system: is this message a Trojan? */
bool
ToyIsTrojan(const std::vector<uint8_t> &m)
{
    const uint8_t sender = m[toy::kOffSender];
    const uint8_t request = m[toy::kOffRequest];
    const int8_t address = static_cast<int8_t>(m[toy::kOffAddress]);
    const uint8_t value = m[toy::kOffValue];
    const uint8_t crc = m[toy::kOffCrc];

    // Server acceptance.
    if (sender >= toy::kPeers)
        return false;
    if (crc != toy::ToyCrc(sender, request, m[toy::kOffAddress], value))
        return false;
    bool accepted = false;
    if (request == toy::kRead)
        accepted = address < static_cast<int>(toy::kDataSize);
    else if (request == toy::kWrite)
        accepted = address >= 0 && address < static_cast<int>(toy::kDataSize);
    if (!accepted)
        return false;

    // Client generatability: address in [0,100); READ has value 0.
    const bool client_addr_ok =
        address >= 0 && address < static_cast<int>(toy::kDataSize);
    if (request == toy::kRead)
        return !(client_addr_ok && value == 0);
    if (request == toy::kWrite)
        return !client_addr_ok;
    return true;  // accepted but not a READ/WRITE: unreachable here
}

TEST_F(ToyPipelineTest, EndToEndFindsNegativeAddressTrojan)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();

    AchillesConfig config;
    config.layout = toy::MakeLayout();
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);

    // At least the READ accepting path carries a Trojan.
    ASSERT_FALSE(result.server.trojans.empty());

    bool found_negative_read = false;
    for (const TrojanWitness &t : result.server.trojans) {
        // Every concrete witness must be a real Trojan (no false
        // positives -- Section 4.1).
        EXPECT_TRUE(ToyIsTrojan(t.concrete))
            << "false positive witness: sender="
            << int(t.concrete[0]) << " request=" << int(t.concrete[1])
            << " address=" << int(t.concrete[2]);
        if (t.concrete[toy::kOffRequest] == toy::kRead &&
            static_cast<int8_t>(t.concrete[toy::kOffAddress]) < 0) {
            found_negative_read = true;
        }
        // The paper's Figure 7 "bundled" case: the READ path also
        // accepts valid client messages.
        EXPECT_TRUE(t.bundled_with_valid);
    }

    // The negative-address READ Trojan must be expressible: check that
    // the defining constraints admit a negative address.
    bool definition_admits_negative = false;
    for (const TrojanWitness &t : result.server.trojans) {
        if (t.concrete[toy::kOffRequest] != toy::kRead)
            continue;
        // Re-solve the definition with address forced negative.
        // (The explorer's message variables are embedded in the
        // definition; find the address byte via the concrete witness --
        // instead, simply re-check with an extra constraint through the
        // solver using the witness's definition plus address<0 on the
        // message: the message bytes are the only 8-bit "msg" vars.)
        std::vector<ExprRef> query = t.definition;
        // Recover the message address variable: it is the one whose
        // model value equals the witness address byte... more robustly,
        // the definition references msg vars by name prefix "msg".
        // Collect vars and pick offset 2 by creation order.
        std::unordered_set<uint32_t> vars;
        for (ExprRef e : query)
            ctx.CollectVars(e, &vars);
        std::vector<uint32_t> msg_vars;
        for (uint32_t v : vars)
            if (ctx.InfoOf(v).name.rfind("msg", 0) == 0)
                msg_vars.push_back(v);
        std::sort(msg_vars.begin(), msg_vars.end());
        if (msg_vars.size() < toy::kMessageLength)
            continue;
        ExprRef addr_var = ctx.VarById(msg_vars[toy::kOffAddress]);
        query.push_back(ctx.MakeSlt(addr_var, ctx.MakeConst(8, 0)));
        if (solver.CheckSat(query) == CheckResult::kSat)
            definition_admits_negative = true;
    }
    EXPECT_TRUE(found_negative_read || definition_admits_negative);
}

TEST_F(ToyPipelineTest, FixedServerHasNoAddressTrojans)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeFixedServer();

    AchillesConfig config;
    // Mask value and crc: the toy READ message carries a value byte that
    // correct clients always zero, which is a (real, but uninteresting)
    // Trojan; masking focuses the analysis on the address logic, the
    // paper's Section 5.2 use case for masks.
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.layout.Mask("value");
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);
    EXPECT_TRUE(result.server.trojans.empty())
        << "fixed server should accept exactly the client-generatable "
           "messages";
    // With pruning on, every state dies before reaching acceptance
    // ("as soon as an execution path cannot be triggered by any Trojan
    // messages, it is dropped" -- Section 3.2).
    EXPECT_TRUE(result.server.accepting_paths.empty());
    EXPECT_GE(result.server.stats.Get("explorer.states_pruned"), 1);

    // Without pruning the accepting paths are explored, and still no
    // witness is produced.
    config.server_config.prune_trojan_free_states = false;
    AchillesResult unpruned = RunAchilles(&ctx, &solver, config);
    EXPECT_TRUE(unpruned.server.trojans.empty());
    EXPECT_FALSE(unpruned.server.accepting_paths.empty());
}

TEST_F(ToyPipelineTest, APosterioriModeFindsSameTrojanPaths)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();

    AchillesConfig config;
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.layout.Mask("value");
    config.clients = {&client};
    config.server = &server;

    AchillesResult incremental = RunAchilles(&ctx, &solver, config);

    config.server_config.mode = SearchMode::kAPosteriori;
    AchillesResult aposteriori = RunAchilles(&ctx, &solver, config);

    // Both modes find Trojans on the READ accepting path.
    ASSERT_FALSE(incremental.server.trojans.empty());
    ASSERT_FALSE(aposteriori.server.trojans.empty());
    for (const TrojanWitness &t : aposteriori.server.trojans)
        EXPECT_TRUE(ToyIsTrojan(t.concrete));
}

TEST_F(ToyPipelineTest, PruningDropsTrojanFreeStates)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();

    AchillesConfig config;
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.layout.Mask("value");
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);
    // The WRITE branch admits no Trojans (all checks present), so the
    // explorer must have pruned at least one state.
    EXPECT_GE(result.server.stats.Get("explorer.states_pruned"), 1);
    // And every reported witness sits on the READ path.
    for (const TrojanWitness &t : result.server.trojans)
        EXPECT_EQ(t.concrete[toy::kOffRequest], toy::kRead);
}

TEST_F(ToyPipelineTest, LiveSamplesShrinkAlongPaths)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();

    AchillesConfig config;
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);

    ASSERT_FALSE(result.server.live_samples.empty());
    // Deeper samples never track more predicates than the total.
    for (const LiveSetSample &s : result.server.live_samples)
        EXPECT_LE(s.live_predicates, result.client_predicate.paths.size());
    // Some deep state must have dropped at least one predicate (the
    // request-type branch separates READ from WRITE predicates).
    const bool some_drop = std::any_of(
        result.server.live_samples.begin(),
        result.server.live_samples.end(), [&](const LiveSetSample &s) {
            return s.live_predicates < result.client_predicate.paths.size();
        });
    EXPECT_TRUE(some_drop);
}

TEST_F(ToyPipelineTest, TimingsAreRecorded)
{
    const symexec::Program client = toy::MakeClient();
    const symexec::Program server = toy::MakeServer();
    AchillesConfig config;
    config.layout = toy::MakeLayout(/*mask_crc=*/true);
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);
    EXPECT_GT(result.timings.client_extraction, 0.0);
    EXPECT_GT(result.timings.server_analysis, 0.0);
    EXPECT_GT(result.timings.Total(), 0.0);
}

TEST(NegateStatsReportTest, RunReportCarriesNegateStats)
{
    // Four subcommands whose tag is arg·13 + 7i: every tag negation is
    // an injective Case-3 field, proved overlap-free without a query.
    ExprContext ctx;
    Solver solver(&ctx);
    const symexec::Program client = synth::MakeClient(4);
    const symexec::Program server = synth::MakeServer(4);
    AchillesConfig config;
    config.layout = synth::MakeLayout();
    config.clients = {&client};
    config.server = &server;
    AchillesResult result = RunAchilles(&ctx, &solver, config);
    const NegateStats &ns = result.negate_stats;
    EXPECT_EQ(ns.overlap_proved_injective, 4u);
    EXPECT_EQ(ns.overlap_discarded, 0u);

    const StatsRegistry &stats = result.preprocessing_stats;
    EXPECT_EQ(stats.Get("negate.exact_predicates"),
              static_cast<int64_t>(ns.exact_predicates));
    EXPECT_EQ(stats.Get("negate.approx_predicates"),
              static_cast<int64_t>(ns.approx_predicates));
    EXPECT_EQ(stats.Get("negate.abandoned_fields"),
              static_cast<int64_t>(ns.abandoned_fields));
    EXPECT_EQ(stats.Get("negate.overlap_discarded"), 0);
    EXPECT_EQ(stats.Get("negate.overlap_proved_injective"), 4);

    std::ostringstream os;
    PrintReport(os, config.layout, result);
    EXPECT_NE(os.str().find(" proved-injective=4\n"), std::string::npos)
        << os.str();
}

}  // namespace
}  // namespace core
}  // namespace achilles
