// Achilles reproduction -- core library.
//
// Human-readable reporting of analysis results: Trojan witnesses with
// their concrete example messages and defining symbolic expressions
// (what the paper's tool prints for fault-injection testing).

#ifndef ACHILLES_CORE_REPORT_H_
#define ACHILLES_CORE_REPORT_H_

#include <iomanip>
#include <ostream>

#include "core/achilles.h"

namespace achilles {
namespace core {

/** Render one concrete message as hex bytes with field annotations. */
inline void
PrintConcreteMessage(std::ostream &os, const MessageLayout &layout,
                     const std::vector<uint8_t> &bytes)
{
    os << std::hex << std::setfill('0');
    for (size_t i = 0; i < bytes.size(); ++i)
        os << std::setw(2) << static_cast<unsigned>(bytes[i])
           << (i + 1 < bytes.size() ? " " : "");
    os << std::dec << std::setfill(' ');
    os << "  [";
    bool first = true;
    for (const FieldSpec &f : layout.fields()) {
        uint64_t value = 0;
        for (uint32_t k = 0; k < f.size; ++k)
            value |= static_cast<uint64_t>(bytes[f.offset + k]) << (8 * k);
        if (!first)
            os << " ";
        first = false;
        os << f.name << "=" << value;
        if (layout.IsMasked(f.name))
            os << "(masked)";
    }
    os << "]";
}

/** Print a summary of a full Achilles run. */
inline void
PrintReport(std::ostream &os, const MessageLayout &layout,
            const AchillesResult &result, bool print_definitions = false,
            smt::ExprContext *ctx = nullptr)
{
    os << "=== Achilles report ===\n";
    os << "client path predicates: "
       << result.client_predicate.paths.size() << "\n";
    os << "negations: exact=" << result.negate_stats.exact_predicates
       << " approx=" << result.negate_stats.approx_predicates
       << " abandoned-fields=" << result.negate_stats.abandoned_fields
       << " overlap-discarded=" << result.negate_stats.overlap_discarded
       << " proved-injective="
       << result.negate_stats.overlap_proved_injective << "\n";
    os << "phase timings (s): client="
       << result.timings.client_extraction
       << " preprocess=" << result.timings.preprocessing
       << " server=" << result.timings.server_analysis << "\n";
    os << "accepting server paths: "
       << result.server.accepting_paths.size() << "\n";
    os << "trojan witnesses: " << result.server.trojans.size() << "\n";
    for (size_t i = 0; i < result.server.trojans.size(); ++i) {
        const TrojanWitness &t = result.server.trojans[i];
        os << "  trojan[" << i << "] path=" << t.server_path_id
           << (t.accept_label.empty() ? ""
                                      : " label=" + t.accept_label)
           << (t.bundled_with_valid ? " (bundled with valid messages)"
                                    : " (trojan-exclusive path)")
           << "\n    concrete: ";
        PrintConcreteMessage(os, layout, t.concrete);
        os << "\n";
        if (print_definitions && ctx != nullptr) {
            os << "    definition:\n";
            for (smt::ExprRef e : t.definition)
                os << "      " << ctx->ToString(e) << "\n";
        }
    }
}

}  // namespace core
}  // namespace achilles

#endif  // ACHILLES_CORE_REPORT_H_
