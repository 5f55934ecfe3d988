// perfbench -- witness checks that do not come from Achilles.
//
// Sampled protocols: the ground truth is derived from the sampler's
// drawn parameters (synth::SampleParams) by restating the server's
// re-checks and the client's bounds and coupling on concrete bytes. A
// message (cmd, arg, tag) is a Trojan iff the server accepts it and no
// client run can send it. Every witness must be a Trojan under its own
// accept label, and the labels that carry witnesses must be exactly the
// labels whose 2^16 (arg, tag) space holds a Trojan.
//
// FSP: the protocol's concrete counterpart (fsp::IsTrojan) must confirm
// every witness, and the label histogram must equal the one pinned when
// the benchmark was defined (112 witnesses, all "fs-syscall"). The pin
// is a regression sentinel, not ground truth.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "proto/registry.h"
#include "proto/synth/synth_family.h"

namespace perfbench {

/** The parts of a witness the checks read. */
struct Witness
{
    std::string label;
    std::vector<uint8_t> bytes;
};

/** Expected outcome of one protocol's analysis. */
class Reference
{
  public:
    /** Ground truth for a sampled protocol, by enumeration. */
    static Reference ForSampled(const achilles::synth::SampledParams &p);
    /** Concrete oracle plus pinned label histogram. */
    static Reference ForOracle(achilles::proto::ConcreteTrojanOracle oracle,
                               std::map<std::string, size_t> pinned);

    /** Empty when the witnesses pass; otherwise the first failure. */
    std::string Check(const std::vector<Witness> &witnesses) const;

  private:
    bool sampled_ = false;
    achilles::synth::SampledParams params_;
    std::set<std::string> trojan_labels_;
    achilles::proto::ConcreteTrojanOracle oracle_;
    std::map<std::string, size_t> pinned_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
