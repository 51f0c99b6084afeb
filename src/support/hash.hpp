// Stable hashing helpers: FNV-1a for strings (used for deterministic
// obfuscated identifier generation and corpus randomness) plus hash_combine
// for composite analysis keys.
//
// Stability contract: every hash produced here depends only on the *bytes*
// of its input — never on std::hash, pointer values, or the standard
// library's implementation — so hash-keyed containers bucket identically on
// every platform/stdlib and nothing hash-derived can drift into report
// output. (The old hash_combine routed through std::hash<T>, which violated
// this file's own contract; see DESIGN.md §13.)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace extractocol {

constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// 64-bit FNV-1a. Stable across platforms/runs, unlike std::hash. Passing a
/// previous result as `h` continues the hash: fnv1a(b, fnv1a(a)) equals the
/// hash of the concatenation a + b.
constexpr std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnv1aBasis) {
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/// SplitMix64 finalizer: a strong, stable 64-bit integer mix.
constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Stable per-value hash feeding hash_combine: integrals/enums mix their
/// bits, strings hash their bytes. Anything else is rejected at compile time
/// — add an explicit overload rather than silently falling back to
/// std::hash (which is what made the old version unstable).
template <typename T>
constexpr std::uint64_t stable_hash(const T& v) {
    if constexpr (std::is_enum_v<T>) {
        return mix64(static_cast<std::uint64_t>(
            static_cast<std::underlying_type_t<T>>(v)));
    } else if constexpr (std::is_integral_v<T>) {
        return mix64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
        return fnv1a(std::string_view(v));
    } else {
        static_assert(std::is_integral_v<T>,
                      "stable_hash: provide an overload for this type");
        return 0;
    }
}

/// Boost-style hash combining for unordered-map keys over composites, on
/// stable_hash instead of std::hash.
template <typename T>
constexpr void hash_combine(std::size_t& seed, const T& v) {
    seed ^= static_cast<std::size_t>(stable_hash(v)) + 0x9e3779b97f4a7c15ull +
            (seed << 6) + (seed >> 2);
}

/// Tiny deterministic PRNG (splitmix64) used by the corpus generator so the
/// synthetic apps are identical on every run and platform.
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

    constexpr std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        return mix64(z);
    }

    /// Value in [0, bound). bound must be > 0.
    ///
    /// Deliberately keeps the modulo reduction: it has bias for bounds that
    /// do not divide 2^64 (< 2^-40 for the small bounds used here), but its
    /// output sequence is frozen — the committed corpus, golden tests, and
    /// property-test corpora are generated from it, so changing the mapping
    /// would silently regenerate every derived artifact. support_test pins
    /// the exact sequence. New call sites that care about uniformity should
    /// use next_below_unbiased instead.
    constexpr std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

    /// Uniform value in [0, bound) via rejection sampling (no modulo bias).
    /// Consumes a variable number of raw draws, so it does NOT produce the
    /// same stream as next_below — opt in only where no committed artifact
    /// pins the biased sequence.
    constexpr std::uint64_t next_below_unbiased(std::uint64_t bound) {
        // Rejection zone: the top partial copy of [0, bound) in 2^64.
        const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound) - 1;
        for (;;) {
            std::uint64_t v = next();
            if (v <= limit) return v % bound;
        }
    }

private:
    std::uint64_t state_;
};

}  // namespace extractocol
