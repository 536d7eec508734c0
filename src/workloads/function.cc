#include "workloads/function.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/snapshot.hh"

namespace bf::workloads
{

FunctionProfile
FunctionProfile::parse()
{
    FunctionProfile p;
    p.name = "parse";
    p.input_bytes = 28ull << 20; // tokenizes a large input string
    p.instrs_per_ref = 170;
    p.write_fraction = 0.12;
    return p;
}

FunctionProfile
FunctionProfile::hash()
{
    FunctionProfile p;
    p.name = "hash";
    p.input_bytes = 24ull << 20; // djb2 over the input
    p.instrs_per_ref = 140;
    p.write_fraction = 0.05;
    return p;
}

FunctionProfile
FunctionProfile::marshal()
{
    FunctionProfile p;
    p.name = "marshal";
    p.input_bytes = 20ull << 20; // string -> integer transformation
    p.instrs_per_ref = 200;
    p.write_fraction = 0.18;
    return p;
}

std::vector<FunctionProfile>
FunctionProfile::all()
{
    return {parse(), hash(), marshal()};
}

Addr
functionCodeBase()
{
    return vm::segmentBase(vm::Segment::Code) + (1ull << 30) / 2;
}

Addr
functionInputBase()
{
    return vm::segmentBase(vm::Segment::Shm);
}

Addr
functionScratchBase()
{
    return vm::segmentBase(vm::Segment::Heap);
}

FaasGroup
buildFaasGroup(vm::Kernel &kernel,
               const std::vector<FunctionProfile> &profiles,
               std::uint64_t seed)
{
    FaasGroup group;
    group.profiles = profiles;
    group.ccid = kernel.createGroup("faas", seed);

    // The GCC base image from Docker Hub: a sizable shared runtime.
    ImageParams image_params;
    image_params.runtime_lib_bytes = 36ull << 20;
    image_params.middleware_bytes = 18ull << 20; // OpenFaaS watchdog etc.
    image_params.binary_bytes = 4ull << 20;
    image_params.config_bytes = 2ull << 20;
    group.image = std::make_unique<ContainerImage>(kernel, "gcc-image",
                                                   image_params);

    group.runtime = kernel.createProcess(group.ccid, "faas:runtime");
    group.image->mapInto(kernel, *group.runtime);
    prefault(kernel, *group.runtime, group.image->runtimeLibBase(),
             image_params.runtime_lib_bytes, AccessType::Read);
    prefault(kernel, *group.runtime, group.image->binaryBase(),
             image_params.binary_bytes, AccessType::Ifetch);

    // The functions operate on one event payload: the input pages
    // partially overlap across the three containers (paper §VI), which
    // is what lets BabelFish eliminate the later functions' input
    // faults. One shared input file, mapped by every function.
    std::uint64_t max_input = 0;
    for (const auto &profile : profiles)
        max_input = std::max(max_input, profile.input_bytes);
    vm::MappedObject *input = kernel.createFile("faas:input", max_input);
    input->preload(kernel.frames());

    for (const auto &profile : profiles) {
        Cycles work = 0;
        vm::Process *proc =
            kernel.fork(*group.runtime, "fn:" + profile.name, work);
        group.bringup_work += work;

        vm::MappedObject *code =
            kernel.createFile(profile.name + ":code", profile.code_bytes);
        code->preload(kernel.frames());

        kernel.mmapObject(*proc, code, functionCodeBase(),
                          profile.code_bytes, 0, /*writable=*/false,
                          /*exec=*/true, /*shared=*/false);
        kernel.mmapObject(*proc, input, functionInputBase(),
                          profile.input_bytes, 0, /*writable=*/false,
                          /*exec=*/false, /*shared=*/false);
        kernel.mmapAnon(*proc, functionScratchBase(),
                        profile.scratch_bytes, /*writable=*/true,
                        /*allow_huge=*/false);
        group.containers.push_back(proc);
        group.inputs.push_back(input);
    }
    return group;
}

FunctionThread::FunctionThread(const FunctionProfile &profile,
                               vm::Process *proc, bool sparse,
                               std::uint64_t seed)
    : QueueThread("fn:" + profile.name, proc, seed), profile_(profile),
      sparse_(sparse)
{}

void
FunctionThread::refillBringup()
{
    // Container bring-up, in the order the paper describes (§III-A,
    // "Rationale for Supporting CoW Sharing"): the container first CoWs
    // a few config/GOT pages, then reads many more pages of the same
    // region read-only, then loads the shared libraries. Selective CoW
    // sharing keeps the read-only majority fused even after the writes;
    // the no-PC-bitmask design unshares the whole PMD table set on the
    // first write and replicates every later fault.
    const Addr lib_base = vm::segmentBase(vm::Segment::Mmap);
    const Addr config_base = vm::segmentBase(vm::Segment::Data);
    // 2 reads per write, spread across the whole bring-up so the
    // containers' config reads and writes overlap in time.
    const std::uint64_t config_ops = profile_.bringup_cow_pages * 3;

    for (unsigned burst = 0; burst < 32; ++burst) {
        const bool libs_left =
            bringup_cursor_ < profile_.bringup_read_bytes;
        const bool config_left =
            config_read_done_ + cow_done_ < config_ops;
        // One config op per 4 bursts while libraries load; any
        // remainder drains afterwards.
        const bool config_due =
            config_left && (!libs_left || burst % 4 == 0);
        if (config_due) {
            const std::uint64_t k = config_read_done_ + cow_done_;
            core::MemRef ref;
            ref.va = config_base + k * basePageBytes;
            // The container parses its configuration read-only first and
            // CoWs (relocations, rewritten settings) at the end — so at
            // any point some containers share pages read-only while
            // earlier ones hold private copies (paper §III-A).
            if (k >= config_ops - profile_.bringup_cow_pages) {
                ref.type = AccessType::Write;
                ref.instrs = 120;
                ++cow_done_;
            } else {
                ref.type = AccessType::Read;
                ref.instrs = 80;
                ++config_read_done_;
            }
            push(ref);
        } else if (libs_left) {
            core::MemRef code;
            code.va = vm::segmentBase(vm::Segment::Code) +
                      rng().below(64) * basePageBytes;
            code.type = AccessType::Ifetch;
            code.instrs = 60;
            push(code);

            core::MemRef ref;
            ref.va = lib_base + bringup_cursor_;
            ref.type = AccessType::Read;
            ref.instrs = 60;
            push(ref);
            bringup_cursor_ += basePageBytes / 2;
        } else {
            // Bring-up complete.
            core::MemRef ref;
            ref.va = functionCodeBase();
            ref.type = AccessType::Ifetch;
            ref.instrs = 50;
            ref.request_end = true; // phase boundary marker
            push(ref);
            return;
        }
    }
}

void
FunctionThread::refillExec()
{
    // Stream over the input. Dense touches every line of a page before
    // advancing; sparse touches ~10% of a page then moves on.
    const unsigned lines = sparse_ ? 6 : 64;
    if (input_cursor_ >= profile_.input_bytes) {
        core::MemRef ref;
        ref.va = functionScratchBase();
        ref.type = AccessType::Write;
        ref.instrs = 50;
        ref.request_end = true; // function returns
        push(ref);
        return;
    }

    const Addr page_va =
        functionInputBase() + (input_cursor_ & ~(basePageBytes - 1));
    for (unsigned i = 0; i < lines; ++i) {
        core::MemRef code;
        code.va = functionCodeBase() + rng().below(24) * basePageBytes +
                  rng().below(64) * 64;
        code.type = AccessType::Ifetch;
        code.instrs = profile_.instrs_per_ref;
        push(code);

        core::MemRef ref;
        ref.va = page_va + (i * 64) % basePageBytes;
        ref.type = AccessType::Read;
        ref.instrs = profile_.instrs_per_ref;
        push(ref);

        if (rng().chance(profile_.write_fraction)) {
            core::MemRef w;
            w.va = functionScratchBase() +
                   rng().below(profile_.scratch_bytes / basePageBytes) *
                       basePageBytes;
            w.type = AccessType::Write;
            w.instrs = profile_.instrs_per_ref / 2;
            push(w);
        }
    }
    input_cursor_ += basePageBytes;
}

void
FunctionThread::refill()
{
    switch (phase_) {
      case Phase::BringUp:
        refillBringup();
        break;
      case Phase::Exec:
        refillExec();
        break;
      case Phase::Done:
        break;
    }
}

void
FunctionThread::completed(const core::MemRef &ref, Cycles now)
{
    if (!started_) {
        started_ = true;
        start_ = now;
    }
    if (!ref.request_end)
        return;
    if (phase_ == Phase::BringUp) {
        bringup_end_ = now;
        phase_ = Phase::Exec;
    } else if (phase_ == Phase::Exec) {
        exec_end_ = now;
        phase_ = Phase::Done;
    }
}

template <class Ar, class Self>
void
FunctionThread::io(Ar &ar, Self &self)
{
    QueueThread::io(ar, self);
    ar.u8(self.phase_);
    ar.u64(self.bringup_cursor_);
    ar.u32(self.cow_done_);
    ar.u64(self.config_read_done_);
    ar.u64(self.input_cursor_);
    ar.b(self.started_);
    ar.u64(self.start_);
    ar.u64(self.bringup_end_);
    ar.u64(self.exec_end_);
}

void
FunctionThread::saveState(snap::ArchiveWriter &ar) const
{
    io(ar, *this);
}

void
FunctionThread::restoreState(snap::ArchiveReader &ar)
{
    io(ar, *this);
}

} // namespace bf::workloads
