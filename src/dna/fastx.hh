/**
 * @file
 * FASTA/FASTQ reading and writing.  Sequencing machines emit FASTQ; the
 * wetlab-data handling module (paper Section VIII) converts it into the
 * plain read lists the clustering module consumes.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dnastore
{

/** One FASTQ record: @id / sequence / + / quality. */
struct FastqRecord
{
    std::string id;
    std::string sequence;
    std::string quality; //!< Phred+33 characters, same length as sequence.
};

/** One FASTA record: >id / sequence (possibly wrapped). */
struct FastaRecord
{
    std::string id;
    std::string sequence;
};

/**
 * Parse FASTQ from a stream.  Throws std::runtime_error on structural
 * errors (missing lines, header markers, length mismatch between sequence
 * and quality).
 */
std::vector<FastqRecord> readFastq(std::istream &in);

/** Parse a FASTQ file; throws std::runtime_error if unreadable. */
std::vector<FastqRecord> readFastqFile(const std::string &path);

/** Serialise records as FASTQ. */
void writeFastq(std::ostream &out, const std::vector<FastqRecord> &records);

/** Write records to a FASTQ file; throws std::runtime_error on failure. */
void writeFastqFile(const std::string &path,
                    const std::vector<FastqRecord> &records);

/** Parse FASTA from a stream (multi-line sequences supported). */
std::vector<FastaRecord> readFasta(std::istream &in);

/**
 * Append one FASTA record to @p out: ">id", then the sequence wrapped at
 * 70 columns, every line newline-terminated (an empty sequence adds no
 * sequence line).  Allocates only when @p out grows.
 */
void appendFasta(std::string &out, std::string_view id,
                 std::string_view sequence);

/** Serialise records as FASTA (appendFasta per record). */
void writeFasta(std::ostream &out, const std::vector<FastaRecord> &records);

} // namespace dnastore

