// perfbench -- witness checks that do not come from Achilles.

#include "reference.h"

namespace perfbench {

namespace {

using achilles::synth::LeafParams;
using achilles::synth::SampledParams;

bool
InRange(uint64_t v, uint64_t lo, uint64_t span)
{
    return v >= lo && v <= lo + span;
}

/**
 * MakeSampledServer on concrete bytes: the handler index (leaf * fanout
 * + low arg bits) the message reaches, or -1 when a re-check rejects it.
 */
int
ServerHandler(const SampledParams &p, uint32_t cmd, uint32_t arg,
              uint32_t tag)
{
    if (cmd >= p.num_subcommands)
        return -1;
    const LeafParams &leaf = p.leaves[cmd];
    if (leaf.check_arg && !InRange(arg, leaf.arg_lo, leaf.arg_span))
        return -1;
    if (!leaf.coupled && leaf.check_tag &&
        !InRange(tag, leaf.tag_lo, leaf.tag_span))
        return -1;
    const uint32_t fanout = p.knobs.handler_fanout;
    return static_cast<int>(cmd * fanout + (arg & (fanout - 1)));
}

/** MakeSampledClient on concrete bytes: can some client run send it? */
bool
ClientSends(const SampledParams &p, uint32_t cmd, uint32_t arg,
            uint32_t tag)
{
    if (cmd >= p.num_subcommands)
        return false;
    const LeafParams &leaf = p.leaves[cmd];
    if (!InRange(arg, leaf.arg_lo, leaf.arg_span))
        return false;
    if (leaf.coupled)
        return tag == ((arg * leaf.mul + leaf.add) & 0xff);
    return InRange(tag, leaf.tag_lo, leaf.tag_span);
}

std::string
HandlerLabel(const SampledParams &p, int handler)
{
    const uint32_t fanout = p.knobs.handler_fanout;
    const uint32_t leaf = static_cast<uint32_t>(handler) / fanout;
    std::string label = "h" + std::to_string(leaf);
    if (fanout > 1)
        label += "." + std::to_string(static_cast<uint32_t>(handler) % fanout);
    return label;
}

std::string
Hex(const std::vector<uint8_t> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 15];
    }
    return out;
}

}  // namespace

Reference
Reference::ForSampled(const SampledParams &p)
{
    Reference ref;
    ref.sampled_ = true;
    ref.params_ = p;
    std::vector<bool> has_trojan(p.num_subcommands * p.knobs.handler_fanout);
    for (uint32_t cmd = 0; cmd < p.num_subcommands; ++cmd)
        for (uint32_t arg = 0; arg < 256; ++arg)
            for (uint32_t tag = 0; tag < 256; ++tag) {
                const int h = ServerHandler(p, cmd, arg, tag);
                if (h >= 0 && !ClientSends(p, cmd, arg, tag))
                    has_trojan[h] = true;
            }
    for (size_t h = 0; h < has_trojan.size(); ++h)
        if (has_trojan[h])
            ref.trojan_labels_.insert(HandlerLabel(p, static_cast<int>(h)));
    return ref;
}

Reference
Reference::ForOracle(achilles::proto::ConcreteTrojanOracle oracle,
                     std::map<std::string, size_t> pinned)
{
    Reference ref;
    ref.oracle_ = std::move(oracle);
    ref.pinned_ = std::move(pinned);
    return ref;
}

std::string
Reference::Check(const std::vector<Witness> &witnesses) const
{
    if (sampled_) {
        std::set<std::string> labels;
        for (const Witness &w : witnesses) {
            if (w.bytes.size() != achilles::synth::kMessageLength)
                return "witness of " + std::to_string(w.bytes.size()) +
                       " bytes";
            const std::vector<uint8_t> &m = w.bytes;
            const int h = ServerHandler(params_, m[0], m[1], m[2]);
            if (h < 0 || HandlerLabel(params_, h) != w.label)
                return "witness " + Hex(m) + " not accepted under [" +
                       w.label + "]";
            if (ClientSends(params_, m[0], m[1], m[2]))
                return "witness " + Hex(m) + " is client-generatable";
            labels.insert(w.label);
        }
        if (labels != trojan_labels_)
            return std::to_string(labels.size()) +
                   " labels carry witnesses, ground truth has " +
                   std::to_string(trojan_labels_.size());
        return "";
    }
    std::map<std::string, size_t> histogram;
    for (const Witness &w : witnesses) {
        if (!oracle_(w.bytes))
            return "oracle rejects witness " + Hex(w.bytes);
        ++histogram[w.label];
    }
    if (histogram != pinned_)
        return "label histogram differs from the pinned one (" +
               std::to_string(witnesses.size()) + " witnesses)";
    return "";
}

}  // namespace perfbench
