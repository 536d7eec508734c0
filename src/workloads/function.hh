/**
 * @file
 * Function-as-a-Service workloads (paper §VI): the three containerized
 * C/C++ functions — Parse, Hash (djb2), Marshal — built on an
 * OpenFaaS-style GCC base image. Functions are short-lived: they bring
 * up (touch shared image pages, CoW a few), then stream over an input
 * dataset with a dense or sparse pattern:
 *
 *  - dense: access all the data in a page before moving to the next;
 *  - sparse: access about 10% of a page before moving on.
 */

#ifndef BF_WORKLOADS_FUNCTION_HH
#define BF_WORKLOADS_FUNCTION_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/thread.hh"
#include "vm/kernel.hh"
#include "workloads/apps.hh"
#include "workloads/image.hh"

namespace bf::workloads
{

/** One FaaS function's shape. */
struct FunctionProfile
{
    std::string name;
    std::uint64_t code_bytes = 1ull << 20;   //!< Function + wrapper code.
    std::uint64_t input_bytes = 24ull << 20; //!< Input dataset (mmap'ed).
    std::uint64_t scratch_bytes = 2ull << 20;
    std::uint32_t instrs_per_ref = 180;
    double write_fraction = 0.1;  //!< Scratch writes during execution.

    /** @{ @name Bring-up shape (docker start + runtime init) */
    std::uint64_t bringup_read_bytes = 10ull << 20; //!< Infra touched.
    unsigned bringup_cow_pages = 96;                //!< Config/GOT writes.
    /** @} */

    static FunctionProfile parse();
    static FunctionProfile hash();
    static FunctionProfile marshal();
    static std::vector<FunctionProfile> all();
};

/** A group of functions sharing one CCID and one base image. */
struct FaasGroup
{
    Ccid ccid = invalidCcid;
    std::unique_ptr<ContainerImage> image; //!< GCC base image.
    vm::Process *runtime = nullptr;
    std::vector<vm::Process *> containers; //!< One per function.
    std::vector<FunctionProfile> profiles;
    std::vector<vm::MappedObject *> inputs;
    Cycles bringup_work = 0; //!< Kernel fork work per container, summed.
};

/**
 * Build a FaaS group: the base image, the runtime, one forked container
 * per function with its code and input mapped.
 */
FaasGroup buildFaasGroup(vm::Kernel &kernel,
                         const std::vector<FunctionProfile> &profiles,
                         std::uint64_t seed);

/** One function invocation running in a container. */
class FunctionThread : public QueueThread
{
  public:
    /**
     * @param sparse use the sparse access pattern (~10% of each page).
     */
    FunctionThread(const FunctionProfile &profile, vm::Process *proc,
                   bool sparse, std::uint64_t seed);

    bool finished() const override { return phase_ == Phase::Done; }
    void completed(const core::MemRef &ref, Cycles now) override;

    void saveState(snap::ArchiveWriter &ar) const override;
    void restoreState(snap::ArchiveReader &ar) override;

    /** @{ @name Measurements (cycles) */
    Cycles bringupCycles() const { return bringup_end_ - start_; }
    Cycles execCycles() const { return exec_end_ - bringup_end_; }
    Cycles totalCycles() const { return exec_end_ - start_; }
    bool started() const { return started_; }
    /** @} */

  private:
    enum class Phase : std::uint8_t { BringUp, Exec, Done };

    const FunctionProfile &profile_;
    bool sparse_;
    Phase phase_ = Phase::BringUp;
    std::uint64_t bringup_cursor_ = 0;
    unsigned cow_done_ = 0;
    std::uint64_t config_read_done_ = 0;
    std::uint64_t input_cursor_ = 0; //!< Byte offset into the input.
    bool started_ = false;
    Cycles start_ = 0;
    Cycles bringup_end_ = 0;
    Cycles exec_end_ = 0;

    void refill() override;
    void refillBringup();
    void refillExec();
    template <class Ar, class Self> static void io(Ar &ar, Self &self);
};

/** Canonical layout of per-function mappings. */
Addr functionCodeBase();
Addr functionInputBase();
Addr functionScratchBase();

} // namespace bf::workloads

#endif // BF_WORKLOADS_FUNCTION_HH
