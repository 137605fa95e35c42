/**
 * @file
 * Tests for FASTA/FASTQ parsing and serialisation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dna/fastx.hh"

namespace dnastore
{
namespace
{

TEST(Fastq, RoundTrip)
{
    std::vector<FastqRecord> records = {
        {"read1", "ACGT", "IIII"},
        {"read2 extra info", "GGCC", "!!!!"},
    };
    std::ostringstream out;
    writeFastq(out, records);
    std::istringstream in(out.str());
    const auto parsed = readFastq(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].id, "read1");
    EXPECT_EQ(parsed[0].sequence, "ACGT");
    EXPECT_EQ(parsed[0].quality, "IIII");
    EXPECT_EQ(parsed[1].id, "read2 extra info");
}

TEST(Fastq, ToleratesCrlfAndBlankLines)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n\n@r2\nGG\n+\nII\n");
    const auto parsed = readFastq(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].sequence, "ACGT");
    EXPECT_EQ(parsed[1].sequence, "GG");
}

TEST(Fastq, RejectsMissingAtSign)
{
    std::istringstream in("r1\nACGT\n+\nIIII\n");
    EXPECT_THROW(readFastq(in), std::runtime_error);
}

TEST(Fastq, RejectsTruncatedRecord)
{
    std::istringstream in("@r1\nACGT\n+\n");
    EXPECT_THROW(readFastq(in), std::runtime_error);
}

TEST(Fastq, RejectsLengthMismatch)
{
    std::istringstream in("@r1\nACGT\n+\nIII\n");
    EXPECT_THROW(readFastq(in), std::runtime_error);
}

TEST(Fastq, RejectsMissingPlus)
{
    std::istringstream in("@r1\nACGT\nIIII\nIIII\n");
    EXPECT_THROW(readFastq(in), std::runtime_error);
}

TEST(Fastq, EmptyInputIsEmpty)
{
    std::istringstream in("");
    EXPECT_TRUE(readFastq(in).empty());
}

TEST(Fastq, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/test_roundtrip.fastq";
    std::vector<FastqRecord> records = {{"x", "ACGTACGT", "IIIIIIII"}};
    writeFastqFile(path, records);
    const auto parsed = readFastqFile(path);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].sequence, "ACGTACGT");
}

TEST(Fastq, MissingFileThrows)
{
    EXPECT_THROW(readFastqFile("/no/such/file.fastq"), std::runtime_error);
}

TEST(Fasta, RoundTripWithWrapping)
{
    std::vector<FastaRecord> records = {
        {"seq1", std::string(200, 'A')},
        {"seq2", "ACGT"},
    };
    std::ostringstream out;
    writeFasta(out, records);
    std::istringstream in(out.str());
    const auto parsed = readFasta(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].sequence, std::string(200, 'A'));
    EXPECT_EQ(parsed[1].sequence, "ACGT");
}

TEST(Fasta, AppendMatchesTheSubstrWriterByteForByte)
{
    // The writer appendFasta replaced: one substr per 70-column line.
    const auto substr_writer = [](const std::string &id,
                                  const std::string &sequence) {
        std::ostringstream out;
        out << '>' << id << '\n';
        for (std::size_t i = 0; i < sequence.size(); i += 70)
            out << sequence.substr(i, 70) << '\n';
        return out.str();
    };
    const std::string bases = "ACGTTGCAAGCT";
    std::vector<FastaRecord> records;
    std::string expected;
    std::string appended = "kept prefix\n";
    const std::string prefix = appended;
    for (const std::size_t length : {0, 1, 69, 70, 71, 140, 141}) {
        std::string sequence(length, 'A');
        for (std::size_t i = 0; i < length; ++i)
            sequence[i] = bases[(i * 7 + length) % bases.size()];
        // Appended rather than concatenated: GCC 12 at -O3 reports a
        // false -Werror=restrict inside an inlined operator+.
        std::string id = "m";
        id.append(std::to_string(length)).append(" pair=3");
        records.push_back({id, sequence});
        expected += substr_writer(id, sequence);

        std::string alone;
        appendFasta(alone, id, sequence);
        EXPECT_EQ(alone, substr_writer(id, sequence)) << length;
        appendFasta(appended, id, sequence);
    }
    EXPECT_EQ(appended, prefix + expected);
    std::ostringstream written;
    writeFasta(written, records);
    EXPECT_EQ(written.str(), expected);
}

TEST(Fasta, MultiLineSequencesJoined)
{
    std::istringstream in(">a\nACG\nTTT\n>b\nGG\n");
    const auto parsed = readFasta(in);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].sequence, "ACGTTT");
}

TEST(Fasta, SequenceBeforeHeaderThrows)
{
    std::istringstream in("ACGT\n>a\n");
    EXPECT_THROW(readFasta(in), std::runtime_error);
}

} // namespace
} // namespace dnastore
