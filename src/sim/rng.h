// Deterministic, seedable PRNG (splitmix64 / xoshiro256**).
//
// The standard library engines are implementation-defined across platforms;
// using our own keeps every simulation bit-reproducible anywhere, which the
// property tests rely on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dscoh {

/// splitmix64: used to expand a single seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, deterministic.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull) { reseed(seed); }

    void reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto& word : s_)
            word = splitmix64(sm);
    }

    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform in [0, bound). bound == 0 returns 0.
    std::uint64_t below(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /// Uniform in [lo, hi] inclusive.
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /// Uniform double in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// True with probability p.
    bool chance(double p) { return unit() < p; }

    /// Raw engine state, so a checkpointed stream resumes mid-sequence.
    template <class Self, class Ar>
    static void snapState(Self& self, Ar& ar)
    {
        for (auto& word : self.s_)
            ar.u64(word);
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4] = {};
};

} // namespace dscoh
