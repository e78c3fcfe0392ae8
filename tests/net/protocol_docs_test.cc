// docs/API.md opcode-table check: every row of the TSE1 opcode table
// (net/protocol.h) must appear in the "Wire format" table of
// docs/API.md with the same wire name and number, and the docs may list
// no opcode the table lacks. A new row without a docs entry, or a
// renamed or renumbered one, fails here, so the reference cannot rot.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <string>

#include "net/protocol.h"

namespace tse::net {
namespace {

/// `| `name` | number | ...` rows of the opcode table in docs/API.md.
std::map<std::string, int> DocumentedOpcodes() {
  std::ifstream doc(TSE_API_DOC);
  EXPECT_TRUE(doc.good()) << "cannot open " << TSE_API_DOC;
  const std::regex row(R"(^\| `([a-z_]+)` \| (\d+) \|)");
  std::map<std::string, int> opcodes;
  std::string line;
  std::smatch match;
  while (std::getline(doc, line)) {
    if (!std::regex_search(line, match, row)) continue;
    EXPECT_TRUE(opcodes.emplace(match[1], std::stoi(match[2])).second)
        << "opcode " << match[1] << " is listed twice";
  }
  return opcodes;
}

TEST(ProtocolDocsTest, EveryRowIsDocumentedWithItsNumber) {
  const std::map<std::string, int> documented = DocumentedOpcodes();
  size_t rows = 0;
  ForEachRpc([&]<typename Row>() {
    ++rows;
    auto it = documented.find(Row::kName);
    ASSERT_NE(it, documented.end())
        << Row::kName << " is missing from the docs/API.md opcode table";
    EXPECT_EQ(it->second, static_cast<int>(Row::kOpcode)) << Row::kName;
  });
  EXPECT_EQ(documented.size(), rows)
      << "docs/API.md lists an opcode the table does not have";
}

}  // namespace
}  // namespace tse::net
