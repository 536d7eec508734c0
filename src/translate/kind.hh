/**
 * @file
 * Identity of a translation backend (DESIGN.md §16). Kept in its own
 * tiny header so core/params.hh can name the selected backend without
 * pulling in the pipeline itself.
 */

#ifndef BF_TRANSLATE_KIND_HH
#define BF_TRANSLATE_KIND_HH

#include <cstdint>

namespace bf::translate
{

/**
 * The pluggable translation-backend zoo. Values are stable identifiers:
 * they are mixed into config hashes, written into checkpoint manifests
 * and trace headers, so existing entries must never be renumbered.
 *
 *  - BabelFish: the reference pipeline (L1/L2 TLBs + PWC + walker).
 *    Despite the name it implements both the conventional and the
 *    BabelFish (CCID-tagged) TLB modes — MmuParams::babelfish selects
 *    the tagging; BackendKind selects the structures around it.
 *  - Victima: the reference pipeline plus a Victima-style backing
 *    store that spills L2-TLB evictions into the simulated L2/L3 data
 *    arrays and probes them on an L2 TLB miss (arxiv 2310.04158).
 *  - Coalesced: the reference pipeline plus a CoLT-style range TLB
 *    that detects contiguous VPN→PFN runs at L2 fill time and packs
 *    them into range entries probed alongside the L2 (arxiv
 *    1908.08774).
 */
enum class BackendKind : std::uint8_t
{
    BabelFish = 0,
    Victima = 1,
    Coalesced = 2,
};

constexpr unsigned numBackendKinds = 3;

/** Stable lower-case name ("babelfish", "victima", "coalesced"). */
const char *backendName(BackendKind kind);

/**
 * Parse a backend name (as accepted by BF_BACKEND). Returns true and
 * sets @p out on success; unknown names return false.
 */
bool parseBackend(const char *name, BackendKind &out);

} // namespace bf::translate

#endif // BF_TRANSLATE_KIND_HH
