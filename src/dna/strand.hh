/**
 * @file
 * Strand utilities.  A strand is represented as a std::string over the
 * upper-case alphabet ACGT; this keeps the sequence code simple, fast and
 * directly printable, matching how reads flow through the pipeline as
 * plain text.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/random.hh"

namespace dnastore
{

/** A DNA strand: a string over {A, C, G, T}. */
using Strand = std::string;

namespace strand
{

/** True if every character is one of A/C/G/T (upper case). */
bool isValid(const Strand &s);

/** Uniformly random strand of the given length. */
Strand random(Rng &rng, std::size_t length);

/** Fraction of G/C characters; 0 for the empty strand. */
double gcContent(const Strand &s);

/** Length of the longest homopolymer run (0 for the empty strand). */
std::size_t maxHomopolymerRun(const Strand &s);

/** Reverse complement (5'->3' flip of the opposite strand). */
Strand reverseComplement(const Strand &s);

/** Replace @p s by its reverse complement without allocating. */
void reverseComplementInPlace(Strand &s);

/**
 * Pack payload bytes into nucleotides, two bits per base, MSB first.
 * A byte 0bB3B2B1B0 (bit pairs) becomes 4 nucleotides.
 */
[[nodiscard]] Strand fromBytes(const std::vector<std::uint8_t> &bytes);

/**
 * Unpack nucleotides back into bytes (inverse of fromBytes).
 * The strand length must be a multiple of 4; throws std::invalid_argument
 * otherwise or on non-ACGT characters.
 */
[[nodiscard]] std::vector<std::uint8_t> toBytes(const Strand &s);

/**
 * Non-throwing variant of toBytes for untrusted input: returns
 * std::nullopt when the length is not a multiple of 4 or a character is
 * not ACGT.
 */
[[nodiscard]] std::optional<std::vector<std::uint8_t>>
tryToBytes(const Strand &s);

/**
 * Encode an unsigned integer as fixed-width nucleotides (big-endian,
 * two bits per base).  Width must be large enough; throws otherwise.
 */
[[nodiscard]] Strand encodeNumber(std::uint64_t value,
                                  std::size_t num_bases);

/**
 * Decode a fixed-width nucleotide number (inverse of encodeNumber).
 * Throws std::invalid_argument on non-ACGT characters or an
 * overflow-length (> 32 base) field.
 */
[[nodiscard]] std::uint64_t decodeNumber(const Strand &s);

/**
 * Non-throwing variant of decodeNumber for untrusted input: returns
 * std::nullopt on non-ACGT characters or when the strand is longer than
 * 32 bases (a 64-bit value cannot represent it without truncation).
 */
[[nodiscard]] std::optional<std::uint64_t> tryDecodeNumber(const Strand &s);

/** Positions (0-based) where two equal-length strands differ. */
std::vector<std::size_t> mismatchPositions(const Strand &a, const Strand &b);

} // namespace strand

} // namespace dnastore

