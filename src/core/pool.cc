#include "core/pool.hh"

#include <iterator>

#include "obs/metrics.hh"

namespace dnastore
{

namespace
{
const std::vector<Strand> kNoMolecules;
} // namespace

void
DnaPool::store(Key key, const PrimerPair &primers,
               const std::vector<Strand> &payload_strands)
{
    std::vector<Strand> tagged;
    tagged.reserve(payload_strands.size());
    for (const Strand &payload : payload_strands)
        tagged.push_back(attachPrimers(primers, payload));
    addTagged(key, std::move(tagged));
}

void
DnaPool::addTagged(Key key, std::vector<Strand> tagged_molecules)
{
    size_ += tagged_molecules.size();
    const auto [slot, fresh] = index_.try_emplace(key, sections_.size());
    if (fresh)
        sections_.push_back({key, {}});
    std::vector<Strand> &molecules = sections_[slot->second].molecules;
    molecules.insert(molecules.end(),
                     std::make_move_iterator(tagged_molecules.begin()),
                     std::make_move_iterator(tagged_molecules.end()));
}

void
DnaPool::appendAndReplaceLast(std::vector<Section> added, Key last_key,
                              std::vector<Strand> last_molecules)
{
    if (const auto last = index_.find(last_key); last != index_.end()) {
        const std::size_t dropped = last->second;
        size_ -= sections_[dropped].molecules.size();
        sections_.erase(sections_.begin() +
                        static_cast<std::ptrdiff_t>(dropped));
        index_.erase(last);
        for (auto &entry : index_)
            if (entry.second > dropped)
                --entry.second;
    }
    for (Section &section : added)
        addTagged(section.key, std::move(section.molecules));
    addTagged(last_key, std::move(last_molecules));
}

const std::vector<Strand> &
DnaPool::section(Key key) const
{
    const auto slot = index_.find(key);
    return slot == index_.end() ? kNoMolecules
                                : sections_[slot->second].molecules;
}

PcrProduct
amplify(const DnaPool &pool, DnaPool::Key key, Rng &rng,
        const PcrConfig &config)
{
    PcrProduct product;
    product.molecules = pool.section(key);
    product.on_target = product.molecules.size();
    if (config.off_target_rate > 0.0) {
        for (const DnaPool::Section &section : pool.sections()) {
            if (section.key == key)
                continue;
            for (const Strand &molecule : section.molecules) {
                if (rng.chance(config.off_target_rate)) {
                    product.molecules.push_back(molecule);
                    ++product.off_target;
                }
            }
        }
    }
    obs::metrics().counter("pool.pcr_reactions_total").add(1);
    obs::metrics().counter("pool.on_target_total").add(product.on_target);
    obs::metrics().counter("pool.off_target_total").add(product.off_target);
    return product;
}

} // namespace dnastore
