#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/bitops.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace su = serep::util;

TEST(Bitops, FlipAndGet) {
    EXPECT_EQ(su::flip_bit(0, 0), 1u);
    EXPECT_EQ(su::flip_bit(1, 0), 0u);
    EXPECT_EQ(su::flip_bit(0, 63), 0x8000000000000000ULL);
    EXPECT_TRUE(su::get_bit(0x10, 4));
    EXPECT_FALSE(su::get_bit(0x10, 3));
    EXPECT_EQ(su::set_bit(0, 5, true), 0x20u);
    EXPECT_EQ(su::set_bit(0xFF, 0, false), 0xFEu);
}

TEST(Bitops, Masks) {
    EXPECT_EQ(su::low_mask(1), 1u);
    EXPECT_EQ(su::low_mask(32), 0xFFFFFFFFu);
    EXPECT_EQ(su::low_mask(64), ~0ULL);
}

TEST(Bitops, SignExtend) {
    EXPECT_EQ(su::sign_extend(0x80, 8), -128);
    EXPECT_EQ(su::sign_extend(0x7F, 8), 127);
    EXPECT_EQ(su::sign_extend(0xFFFFFFFFull, 32), -1);
    EXPECT_EQ(su::sign_extend(0x123, 32), 0x123);
}

TEST(Bitops, F64Roundtrip) {
    for (double d : {0.0, 1.0, -3.5, 1e300, -1e-300}) {
        EXPECT_EQ(su::bits_f64(su::f64_bits(d)), d);
    }
}

TEST(Rng, Deterministic) {
    su::Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    su::Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
    su::Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
    su::Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.range(5, 10);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 10u);
    }
}

TEST(Rng, UniformInUnitInterval) {
    su::Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChildStreamsIndependent) {
    su::Rng root(123);
    su::Rng c1 = root.child(1);
    su::Rng c2 = root.child(2);
    su::Rng c1again = root.child(1);
    EXPECT_EQ(c1.next(), c1again.next());
    EXPECT_NE(c1.next(), c2.next());
}

TEST(Csv, WriteSimple) {
    std::ostringstream os;
    su::CsvWriter w(os);
    w.row({"a", "b", "c"});
    w.row({"1", "2,3", "he said \"hi\""});
    EXPECT_EQ(os.str(), "a,b,c\n1,\"2,3\",\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, ParseRoundtrip) {
    std::ostringstream os;
    su::CsvWriter w(os);
    w.row({"x,y", "plain", "q\"q"});
    const auto rows = su::csv_parse(os.str());
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][0], "x,y");
    EXPECT_EQ(rows[0][1], "plain");
    EXPECT_EQ(rows[0][2], "q\"q");
}

TEST(Csv, ParseMultiline) {
    const auto rows = su::csv_parse("a,b\r\nc,d\n\ne,f\n");
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1][1], "d");
}

TEST(Table, AlignsColumns) {
    su::Table t({"name", "v"});
    t.add_row({"x", "1"});
    t.add_row({"longer", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| name   | v  |"), std::string::npos);
    EXPECT_NE(s.find("| longer | 22 |"), std::string::npos);
}

TEST(Table, NumFormat) {
    EXPECT_EQ(su::Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(su::Table::pct(12.345, 1), "12.3%");
}

TEST(Cli, ParsesForms) {
    const char* argv[] = {"prog", "--faults", "500", "--fast", "--cls=W"};
    su::Cli cli(5, argv);
    EXPECT_EQ(cli.get_int("faults", 0), 500);
    EXPECT_TRUE(cli.has("fast"));
    EXPECT_EQ(cli.get("cls", "S"), "W");
    EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
}

// The unknown-flag audit: a mistyped flag must fail with a UsageError that
// names the offender (serep maps that to exit 2), never be silently
// ignored — `serep campaign --fault=500` used to happily run 100 faults.
TEST(Cli, RequireKnownAcceptsTheDeclaredSet) {
    const char* argv[] = {"prog", "--faults=500", "--fast", "--help"};
    su::Cli cli(4, argv);
    EXPECT_NO_THROW(cli.require_known({"faults", "fast"})); // help is free
}

TEST(Cli, RequireKnownNamesEveryOffender) {
    const char* argv[] = {"prog", "--faults=500", "--bogus=1", "--wrnog"};
    su::Cli cli(4, argv);
    try {
        cli.require_known({"faults"});
        FAIL() << "unknown flags accepted";
    } catch (const serep::util::UsageError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--wrnog"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--faults"), std::string::npos)
            << "message should list the known flags: " << msg;
    }
}

TEST(Cli, RequireKnownEmptySetSaysNoFlagsTaken) {
    const char* argv[] = {"prog", "--x=1"};
    su::Cli cli(2, argv);
    try {
        cli.require_known({});
        FAIL() << "unknown flag accepted";
    } catch (const serep::util::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("takes no --flags"),
                  std::string::npos)
            << e.what();
    }
}

// Numeric flags take the whole value or refuse it by name: a stray suffix,
// a word, an overflow or a non-finite number must never run as some other
// value (`--kill-shard=x` as shard 0, `--top-regs=8x` as 8).
TEST(Cli, NumericFlagsRefuseMalformedValuesNamingTheFlag) {
    const auto cli_for = [](const std::string& value) {
        const std::string arg = "--n=" + value;
        const char* argv[] = {"prog", arg.c_str()};
        return su::Cli(2, argv);
    };
    const auto refused = [&](const std::string& value, bool integer) {
        try {
            const su::Cli cli = cli_for(value);
            if (integer)
                cli.get_int("n", 0);
            else
                cli.get_double("n", 0);
        } catch (const su::UsageError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("--n "), std::string::npos) << msg;
            EXPECT_NE(msg.find("'" + value + "'"), std::string::npos) << msg;
            return true;
        }
        return false;
    };
    for (const char* bad : {"8x", "abc", "", "3.5", "99999999999999999999",
                            "-99999999999999999999", "nan", "inf", "1e999",
                            " 8", "+8", "0x", "-", "0xg"})
        EXPECT_TRUE(refused(bad, true)) << "get_int accepted '" << bad << "'";
    for (const char* bad : {"nan", "inf", "-inf", "1e999", "", "abc", "8x",
                            " 8"})
        EXPECT_TRUE(refused(bad, false))
            << "get_double accepted '" << bad << "'";

    EXPECT_EQ(cli_for("0x10").get_int("n", 0), 16);
    EXPECT_EQ(cli_for("0XdAc2018").get_int("n", 0), 0xDAC2018);
    EXPECT_EQ(cli_for("-1").get_int("n", 0), -1);
    EXPECT_EQ(cli_for("010").get_int("n", 0), 10); // decimal, not octal
    EXPECT_EQ(cli_for("-9223372036854775808").get_int("n", 0),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_DOUBLE_EQ(cli_for("1e-3").get_double("n", 0), 1e-3);
    EXPECT_DOUBLE_EQ(cli_for("-2").get_double("n", 0), -2.0);
    EXPECT_EQ(cli_for("7").get_int("missing", 5), 5);
}

TEST(Rng, BelowZeroBoundReturnsZeroWithoutDraw) {
    // The documented empty-range contract, and the no-draw guarantee: the
    // stream must stay aligned with a generator that never saw the call.
    su::Rng a(31), b(31);
    EXPECT_EQ(a.below(0), 0u);
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeDegenerateAndFullSpan) {
    su::Rng r(32);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(r.range(77, 77), 77u);

    // [0, 2^64-1] makes the span wrap to 0; the fixed range() degenerates
    // to a raw draw instead of below(0)'s constant lo. A constant would be
    // caught here with probability 1 - 2^-640.
    su::Rng f(33);
    bool nonzero = false;
    for (int i = 0; i < 10; ++i)
        nonzero |= f.range(0, ~std::uint64_t{0}) != 0;
    EXPECT_TRUE(nonzero);

    // Any lo anchors the same wrap: the old `lo + below(0)` bug pinned
    // range(1, 0) to the constant 1.
    su::Rng g(34);
    bool not_lo = false;
    for (int i = 0; i < 64; ++i) not_lo |= g.range(1, 0) != 1u;
    EXPECT_TRUE(not_lo);
}

TEST(Cli, DeclaredBooleanFlagDoesNotConsumePositional) {
    // The --flag positional ambiguity: `serep report --partial out.csv`
    // used to swallow the input file as the value of --partial.
    const char* argv[] = {"prog", "report", "--partial", "out.csv"};
    su::Cli cli(4, argv, {"partial"});
    EXPECT_TRUE(cli.has("partial"));
    EXPECT_EQ(cli.get("partial", ""), "1");
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "report");
    EXPECT_EQ(cli.positional()[1], "out.csv");
}

TEST(Cli, UndeclaredFlagKeepsGreedyValueForm) {
    // Without the declaration the historical `--key value` form still holds.
    const char* argv[] = {"prog", "report", "--threads", "8"};
    su::Cli cli(4, argv);
    EXPECT_EQ(cli.get_int("threads", 0), 8);
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "report");
}

TEST(Cli, DeclaredBooleanStillAcceptsExplicitValue) {
    const char* argv[] = {"prog", "--partial=0", "file.csv"};
    su::Cli cli(3, argv, {"partial"});
    EXPECT_EQ(cli.get("partial", ""), "0");
    ASSERT_EQ(cli.positional().size(), 1u);
}

TEST(Cli, FuzzMatchesReferenceParser) {
    // Differential fuzz of the parser against a transliteration of its
    // documented grammar: --key=value | declared bare flag -> "1" |
    // undeclared --key eats one following non-flag token | everything else
    // is positional, in argv order.
    su::Rng rng(0xC11F);
    const std::vector<std::string> vocab = {
        "--alpha", "--beta",  "--alpha=1", "--beta=x=y", "--gamma=",
        "alpha",   "in.csv",  "--",        "-x",         "run",
    };
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::string> args = {"prog"};
        const unsigned n = static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < n; ++i)
            args.push_back(vocab[rng.below(vocab.size())]);
        std::vector<const char*> argv;
        for (const std::string& a : args) argv.push_back(a.c_str());

        // Reference model ("alpha" is the declared boolean flag).
        std::map<std::string, std::string> kv;
        std::vector<std::string> pos;
        for (std::size_t i = 1; i < args.size(); ++i) {
            const std::string& a = args[i];
            if (a.rfind("--", 0) != 0) {
                pos.push_back(a);
                continue;
            }
            const std::string key = a.substr(2);
            const auto eq = key.find('=');
            if (eq != std::string::npos)
                kv[key.substr(0, eq)] = key.substr(eq + 1);
            else if (key != "alpha" && i + 1 < args.size() &&
                     args[i + 1].rfind("--", 0) != 0)
                kv[key] = args[++i];
            else
                kv[key] = "1";
        }

        su::Cli cli(static_cast<int>(argv.size()), argv.data(), {"alpha"});
        EXPECT_EQ(cli.positional(), pos) << "iter " << iter;
        for (const auto& [k, v] : kv)
            EXPECT_EQ(cli.get(k, "<absent>"), v) << "iter " << iter
                                                 << " key " << k;
        for (const char* k : {"alpha", "beta", "gamma"})
            EXPECT_EQ(cli.has(k), kv.count(k) != 0) << "iter " << iter
                                                    << " key " << k;
    }
}
