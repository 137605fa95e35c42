#include "dna/fastx.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dnastore
{

namespace
{

/** getline that tolerates trailing '\r' (CRLF files). */
bool
getCleanLine(std::istream &in, std::string &line)
{
    if (!std::getline(in, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

} // namespace

std::vector<FastqRecord>
readFastq(std::istream &in)
{
    std::vector<FastqRecord> records;
    std::string header, sequence, plus, quality;
    std::size_t line_no = 0;
    while (getCleanLine(in, header)) {
        ++line_no;
        if (header.empty())
            continue; // tolerate blank separator lines
        if (header[0] != '@') {
            throw std::runtime_error("FASTQ: expected '@' at line " +
                                     std::to_string(line_no));
        }
        if (!getCleanLine(in, sequence) || !getCleanLine(in, plus) ||
            !getCleanLine(in, quality)) {
            throw std::runtime_error("FASTQ: truncated record at line " +
                                     std::to_string(line_no));
        }
        line_no += 3;
        if (plus.empty() || plus[0] != '+') {
            throw std::runtime_error("FASTQ: expected '+' at line " +
                                     std::to_string(line_no - 1));
        }
        if (sequence.size() != quality.size()) {
            throw std::runtime_error(
                "FASTQ: sequence/quality length mismatch at line " +
                std::to_string(line_no));
        }
        records.push_back({header.substr(1), sequence, quality});
    }
    return records;
}

std::vector<FastqRecord>
readFastqFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open FASTQ file: " + path);
    return readFastq(in);
}

void
writeFastq(std::ostream &out, const std::vector<FastqRecord> &records)
{
    for (const auto &rec : records) {
        out << '@' << rec.id << '\n'
            << rec.sequence << '\n'
            << "+\n"
            << rec.quality << '\n';
    }
}

void
writeFastqFile(const std::string &path,
               const std::vector<FastqRecord> &records)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open FASTQ file for write: " + path);
    writeFastq(out, records);
    if (!out)
        throw std::runtime_error("write failed: " + path);
}

std::vector<FastaRecord>
readFasta(std::istream &in)
{
    std::vector<FastaRecord> records;
    std::string line;
    while (getCleanLine(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '>') {
            records.push_back({line.substr(1), ""});
        } else {
            if (records.empty())
                throw std::runtime_error("FASTA: sequence before header");
            records.back().sequence += line;
        }
    }
    return records;
}

void
appendFasta(std::string &out, std::string_view id, std::string_view sequence)
{
    constexpr std::size_t wrap = 70;
    out += '>';
    out += id;
    out += '\n';
    for (std::size_t i = 0; i < sequence.size(); i += wrap) {
        out.append(sequence.data() + i, std::min(wrap, sequence.size() - i));
        out += '\n';
    }
}

void
writeFasta(std::ostream &out, const std::vector<FastaRecord> &records)
{
    std::string text;
    for (const auto &rec : records) {
        text.clear();
        appendFasta(text, rec.id, rec.sequence);
        out << text;
    }
}

} // namespace dnastore
