/**
 * @file
 * Systematic Reed-Solomon code over GF(2^8) with errors-and-erasures
 * decoding.  This is the outer code that protects each row (codeword) of
 * the encoding-unit matrix in the storage architecture (paper Section
 * IV): lost molecules become erasures, corrupted molecules become
 * symbol errors.
 *
 * Encoding is a systematic LFSR driven by a 256 x (n-k) table of
 * feedback products built once per code.  Decoding uses the Sugiyama
 * (extended Euclidean) key-equation solver with erasure
 * pre-multiplication, Chien search and Forney magnitudes, followed by
 * syndrome re-verification so miscorrections are reported as failures
 * rather than silent corruption.
 */

#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "ecc/gf256.hh"

namespace dnastore
{

/**
 * RS(n, k) codec; n <= 255, 0 < k < n.  Codewords are laid out
 * big-endian: index 0 is the highest-degree coefficient, so a systematic
 * codeword is [message bytes..., parity bytes...].
 */
class ReedSolomon
{
  public:
    /** Outcome of a decode attempt. */
    struct DecodeResult
    {
        bool ok = false;               //!< Codeword recovered and verified.
        std::size_t errors = 0;        //!< Unknown-position errors fixed.
        std::size_t erasures = 0;      //!< Erasure positions filled.
    };

    /**
     * @param n Codeword length in symbols (<= 255).
     * @param k Message length in symbols (< n).
     * Throws std::invalid_argument for out-of-range parameters.
     */
    ReedSolomon(std::size_t n, std::size_t k);

    std::size_t n() const { return n_; }
    std::size_t k() const { return k_; }
    /** Number of parity symbols (n - k). */
    std::size_t parity() const { return n_ - k_; }
    /** Guaranteed error-correction radius floor((n-k)/2). */
    std::size_t correctionCapacity() const { return parity() / 2; }

    /**
     * Encode a k-symbol message into an n-symbol systematic codeword.
     * Throws std::invalid_argument on size mismatch.
     */
    [[nodiscard]] std::vector<std::uint8_t>
    encode(std::span<const std::uint8_t> message) const;

    /**
     * Decode in place.  @p erasures lists known-bad codeword indices
     * (e.g. positions of molecules that were never recovered); their
     * current contents are ignored.  Correctable iff
     * 2*errors + erasures <= n - k.
     *
     * On success the codeword holds the corrected symbols and result.ok
     * is true; on failure the codeword is left in its (possibly
     * partially modified but re-checked) state and ok is false.
     */
    [[nodiscard]] DecodeResult
    decode(std::span<std::uint8_t> codeword,
           std::span<const std::size_t> erasures = {}) const;

    /** Extract the message part of a (corrected) codeword. */
    [[nodiscard]] std::vector<std::uint8_t>
    message(std::span<const std::uint8_t> codeword) const;

    /** True iff the codeword has all-zero syndromes. */
    bool isCodeword(std::span<const std::uint8_t> codeword) const;

    /**
     * The n-k syndromes S_j = c(alpha^j) of an n-symbol word; all zero
     * iff it is a codeword.
     */
    [[nodiscard]] gf256::Poly
    syndromes(std::span<const std::uint8_t> codeword) const;

  private:
    std::size_t n_;
    std::size_t k_;
    /**
     * 256 x (n-k) encoder feedback products: row f is f times the
     * generator's coefficients below x^(n-k), highest degree first.
     */
    std::vector<std::uint8_t> feedback_;
};

} // namespace dnastore

