/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator (workload generators, YCSB
 * clients, ASLR seeds) draws from an Rng seeded from the experiment
 * configuration, so runs are exactly reproducible. The generator is
 * xoshiro256** seeded through splitmix64, which is fast and has no
 * pathological low-bit behaviour.
 */

#ifndef BF_COMMON_RNG_HH
#define BF_COMMON_RNG_HH

#include <cstdint>

namespace bf
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any seed (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the 256-bit state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Checkpoint layout (common/snapshot.hh): the 256-bit state. */
    template <class Ar, class Self>
    static void
    io(Ar &ar, Self &self)
    {
        for (auto &word : self.state_)
            ar.u64(word);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace bf

#endif // BF_COMMON_RNG_HH
