/**
 * @file
 * Tests for the DNA pool key-value store and PCR amplification.
 */

#include <gtest/gtest.h>

#include "core/pool.hh"

namespace dnastore
{
namespace
{

struct Fixture
{
    Fixture()
        : rng(21), lib(PrimerLibrary::design(rng, 6))
    {
    }

    Rng rng;
    PrimerLibrary lib;
};

TEST(DnaPool, StoreAttachesPrimers)
{
    Fixture f;
    const auto pair = f.lib.pairFor(0);
    DnaPool pool;
    const Strand payload = strand::random(f.rng, 50);
    pool.store(0, pair, {payload});
    ASSERT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.section(0)[0], pair.forward + payload + pair.reverse);
}

TEST(DnaPool, AmplifySelectsOnlyTargetFile)
{
    Fixture f;
    DnaPool pool;
    std::vector<Strand> file_a, file_b;
    for (int i = 0; i < 30; ++i) {
        file_a.push_back(strand::random(f.rng, 40));
        file_b.push_back(strand::random(f.rng, 40));
    }
    pool.store(0, f.lib.pairFor(0), file_a);
    pool.store(1, f.lib.pairFor(1), file_b);
    EXPECT_EQ(pool.size(), 60u);

    const auto product = amplify(pool, 0, f.rng);
    EXPECT_EQ(product.on_target, 30u);
    EXPECT_EQ(product.off_target, 0u);
    ASSERT_EQ(product.molecules.size(), 30u);
    const auto pair = f.lib.pairFor(0);
    for (const auto &mol : product.molecules) {
        EXPECT_EQ(mol.substr(0, pair.forward.size()), pair.forward);
    }
}

TEST(DnaPool, OffTargetLeakage)
{
    Fixture f;
    DnaPool pool;
    std::vector<Strand> file_a(50, strand::random(f.rng, 40));
    std::vector<Strand> file_b(5000, strand::random(f.rng, 40));
    pool.store(0, f.lib.pairFor(0), file_a);
    pool.store(1, f.lib.pairFor(1), file_b);

    PcrConfig cfg;
    cfg.off_target_rate = 0.01;
    const auto product = amplify(pool, 0, f.rng, cfg);
    EXPECT_EQ(product.on_target, 50u);
    EXPECT_NEAR(static_cast<double>(product.off_target), 50.0, 30.0);
}

TEST(DnaPool, AmplifyUnknownKeyIsEmpty)
{
    Fixture f;
    DnaPool pool;
    pool.store(0, f.lib.pairFor(0), {strand::random(f.rng, 40)});
    const auto product = amplify(pool, 2, f.rng);
    EXPECT_TRUE(product.molecules.empty());
}

TEST(DnaPool, AmplifyPutsTargetFirstThenLeaksInPoolOrder)
{
    // Store B, then A, then more of B: the product must be A's section
    // in store order followed by the leaked B molecules in pool order,
    // with exactly one chance draw per non-target molecule.
    Fixture f;
    std::vector<Strand> file_a, file_b, more_b;
    for (int i = 0; i < 20; ++i) {
        file_a.push_back(strand::random(f.rng, 40));
        file_b.push_back(strand::random(f.rng, 40));
        more_b.push_back(strand::random(f.rng, 40));
    }
    DnaPool pool;
    pool.addTagged(1, file_b);
    pool.addTagged(0, file_a);
    pool.addTagged(1, more_b);
    std::vector<Strand> pool_b = file_b;
    pool_b.insert(pool_b.end(), more_b.begin(), more_b.end());
    ASSERT_EQ(pool.size(), 60u);
    ASSERT_EQ(pool.sections().size(), 2u);
    EXPECT_EQ(pool.sections()[0].key, 1u);
    EXPECT_EQ(pool.section(1), pool_b);

    const double rate = 0.5;
    Rng rng(7);
    Rng replay(7);
    const auto product = amplify(pool, 0, rng, {rate});
    std::vector<Strand> expected = file_a;
    for (const Strand &molecule : pool_b)
        if (replay.chance(rate))
            expected.push_back(molecule);
    EXPECT_EQ(product.on_target, file_a.size());
    EXPECT_EQ(product.off_target, expected.size() - file_a.size());
    EXPECT_GT(product.off_target, 0u);
    EXPECT_LT(product.off_target, pool_b.size());
    EXPECT_EQ(product.molecules, expected);
    EXPECT_EQ(rng.next(), replay.next());

    // At rate 0 nothing leaks and the generator is left untouched.
    Rng quiet(9);
    Rng untouched(9);
    const auto clean = amplify(pool, 0, quiet);
    EXPECT_EQ(clean.molecules, file_a);
    EXPECT_EQ(quiet.next(), untouched.next());
}

TEST(DnaPool, AppendAndReplaceLastMovesTheKeyToTheEnd)
{
    // Section 0 sits mid-pool: the call drops it, appends the added
    // sections (merging into an existing key) and re-adds 0 last.
    Fixture f;
    const auto strands = [&f](std::size_t n) {
        std::vector<Strand> out;
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(strand::random(f.rng, 30));
        return out;
    };
    const auto one = strands(3), zero = strands(4), two = strands(2);
    const auto more_two = strands(1), three = strands(5), mirror = strands(6);
    DnaPool pool;
    pool.addTagged(1, one);
    pool.addTagged(0, zero);
    pool.addTagged(2, two);
    pool.appendAndReplaceLast({{2, more_two}, {3, three}}, 0, mirror);

    std::vector<DnaPool::Key> keys;
    for (const DnaPool::Section &section : pool.sections())
        keys.push_back(section.key);
    EXPECT_EQ(keys, (std::vector<DnaPool::Key>{1, 2, 3, 0}));
    std::vector<Strand> all_two = two;
    all_two.insert(all_two.end(), more_two.begin(), more_two.end());
    EXPECT_EQ(pool.section(1), one);
    EXPECT_EQ(pool.section(2), all_two);
    EXPECT_EQ(pool.section(3), three);
    EXPECT_EQ(pool.section(0), mirror);
    EXPECT_EQ(pool.size(), one.size() + all_two.size() + three.size() +
                               mirror.size());

    // An absent key is simply added last; later stores find every slot.
    DnaPool fresh;
    fresh.appendAndReplaceLast({{5, one}}, 0, zero);
    fresh.addTagged(5, two);
    ASSERT_EQ(fresh.sections().size(), 2u);
    EXPECT_EQ(fresh.sections()[1].key, 0u);
    EXPECT_EQ(fresh.section(5).size(), one.size() + two.size());
    EXPECT_EQ(fresh.size(), one.size() + two.size() + zero.size());
}

} // namespace
} // namespace dnastore
