// Unit tests for result tables (util/table.hpp) and CLI parsing
// (util/args.hpp).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "util/args.hpp"
#include "util/table.hpp"

namespace tsched {
namespace {

TEST(Table, MarkdownAlignsColumns) {
    Table t({"name", "value"});
    t.new_row().add("alpha").add(1.5, 1);
    t.new_row().add("b").add(22.25, 2);
    const std::string md = t.to_markdown();
    EXPECT_NE(md.find("| name  | value |"), std::string::npos);
    EXPECT_NE(md.find("| alpha | 1.5   |"), std::string::npos);
    EXPECT_NE(md.find("| b     | 22.25 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
    Table t({"a", "b"});
    t.new_row().add("x,y").add("he said \"hi\"");
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
    EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, TypedAddsFormat) {
    Table t({"i", "u", "d"});
    t.new_row().add(-3).add(std::size_t{42}).add(3.14159, 3);
    EXPECT_EQ(t.at(0, 0), "-3");
    EXPECT_EQ(t.at(0, 1), "42");
    EXPECT_EQ(t.at(0, 2), "3.142");
}

TEST(Table, RejectsTooManyCells) {
    Table t({"only"});
    t.new_row().add("one");
    EXPECT_THROW(t.add("two"), std::logic_error);
}

TEST(Table, RejectsEmptyHeaders) {
    EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, ShortRowsRenderPadded) {
    Table t({"a", "b"});
    t.new_row().add("x");  // second cell missing
    const std::string md = t.to_markdown();
    EXPECT_NE(md.find("| x |"), std::string::npos);
}

namespace {
Args parse(std::initializer_list<const char*> argv) {
    std::vector<const char*> v{"prog"};
    v.insert(v.end(), argv.begin(), argv.end());
    return Args(static_cast<int>(v.size()), v.data());
}
}  // namespace

TEST(Args, KeyEqualsValue) {
    const Args a = parse({"--trials=25"});
    EXPECT_EQ(a.get_int("trials", 0), 25);
}

TEST(Args, KeySpaceValue) {
    const Args a = parse({"--name", "heft"});
    EXPECT_EQ(a.get_string("name", ""), "heft");
}

TEST(Args, BareFlagIsTrue) {
    const Args a = parse({"--verbose"});
    EXPECT_TRUE(a.get_bool("verbose", false));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_FALSE(a.has("quiet"));
}

TEST(Args, DefaultsWhenAbsent) {
    const Args a = parse({});
    EXPECT_EQ(a.get_int("n", 7), 7);
    EXPECT_EQ(a.get_double("x", 2.5), 2.5);
    EXPECT_EQ(a.get_string("s", "dflt"), "dflt");
    EXPECT_FALSE(a.get_bool("b", false));
}

TEST(Args, Lists) {
    const Args a = parse({"--sizes=10,20,30", "--ccr=0.5,1,5", "--algos=heft,ils"});
    EXPECT_EQ(a.get_int_list("sizes", {}), (std::vector<std::int64_t>{10, 20, 30}));
    EXPECT_EQ(a.get_double_list("ccr", {}), (std::vector<double>{0.5, 1.0, 5.0}));
    EXPECT_EQ(a.get_string_list("algos", {}), (std::vector<std::string>{"heft", "ils"}));
}

TEST(Args, ListDefaults) {
    const Args a = parse({});
    EXPECT_EQ(a.get_int_list("sizes", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Args, Positional) {
    const Args a = parse({"input.tsg", "--n=3", "out.csv"});
    EXPECT_EQ(a.positional(), (std::vector<std::string>{"input.tsg", "out.csv"}));
}

TEST(Args, MalformedNumberThrows) {
    const Args a = parse({"--n=abc"});
    EXPECT_THROW((void)a.get_int("n", 0), std::invalid_argument);
    EXPECT_THROW((void)a.get_double("n", 0.0), std::invalid_argument);
    EXPECT_THROW((void)a.get_bool("n", false), std::invalid_argument);
}

/// The std::invalid_argument message `parse` throws, or "" if none.
template <typename Parse>
std::string invalid_argument_message(Parse parse) {
    try {
        parse();
    } catch (const std::invalid_argument& err) {
        return err.what();
    }
    return "";
}

TEST(Args, TrailingJunkIsRejectedNotTruncated) {
    const Args a = parse({"--max-conns=7abc", "--rate=1.5x", "--n= 12", "--x=-2.5e1"});
    EXPECT_NE(invalid_argument_message([&] { (void)a.get_int("max-conns", 0); })
                  .find("--max-conns"),
              std::string::npos);
    EXPECT_NE(invalid_argument_message([&] { (void)a.get_double("rate", 0.0); }).find("--rate"),
              std::string::npos);
    EXPECT_THROW((void)a.get_size("max-conns", 0), std::invalid_argument);
    EXPECT_EQ(a.get_int("n", 0), 12);  // leading blanks are still skipped
    EXPECT_EQ(a.get_double("x", 0.0), -25.0);
}

TEST(Args, SizesRejectNegativesNamingTheFlag) {
    const Args a = parse({"--max-conns=-1", "--threads=4", "--zero=0"});
    const std::string message =
        invalid_argument_message([&] { (void)a.get_size("max-conns", 64); });
    EXPECT_NE(message.find("--max-conns"), std::string::npos) << message;
    EXPECT_NE(message.find("-1"), std::string::npos) << message;
    EXPECT_EQ(a.get_int("max-conns", 0), -1);  // a plain integer may be negative
    EXPECT_EQ(a.get_size("threads", 0), 4u);
    EXPECT_EQ(a.get_size("zero", 9), 0u);
    EXPECT_EQ(a.get_size("absent", 64), 64u);
    EXPECT_THROW((void)parse({"--n=abc"}).get_size("n", 0), std::invalid_argument);
}

TEST(Args, ListErrorsNameTheFlag) {
    const Args a = parse({"--batches=1,x", "--ccr=0.5,abc", "--sizes=10,20z"});
    for (const auto& [flag, message] :
         {std::pair{"--batches",
                    invalid_argument_message([&] { (void)a.get_int_list("batches", {}); })},
          std::pair{"--ccr",
                    invalid_argument_message([&] { (void)a.get_double_list("ccr", {}); })},
          std::pair{"--sizes",
                    invalid_argument_message([&] { (void)a.get_int_list("sizes", {}); })}}) {
        EXPECT_NE(message.find(flag), std::string::npos) << flag << ": '" << message << "'";
    }
}

TEST(Args, BooleanSpellings) {
    EXPECT_TRUE(parse({"--f=yes"}).get_bool("f", false));
    EXPECT_TRUE(parse({"--f=1"}).get_bool("f", false));
    EXPECT_FALSE(parse({"--f=off"}).get_bool("f", true));
    EXPECT_FALSE(parse({"--f=no"}).get_bool("f", true));
}

TEST(Args, CheckKnownAcceptsListedFlags) {
    const Args a = parse({"--trials=5", "--seed=1", "pos.tsg"});
    EXPECT_NO_THROW(a.check_known({"trials", "seed", "algos"}));
}

TEST(Args, CheckKnownNamesTheOffendingFlag) {
    const Args a = parse({"--trials=5", "--trails=50"});
    try {
        a.check_known({"trials"});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
        EXPECT_NE(std::string(err.what()).find("--trails"), std::string::npos) << err.what();
    }
}

}  // namespace
}  // namespace tsched
