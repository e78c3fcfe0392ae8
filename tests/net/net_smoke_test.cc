// Binary-level smoke test for remote access: boots a real `tse_served
// --demo` on an ephemeral loopback port, drives it with `tse_shell
// connect HOST:PORT`, and checks the round trip — the same two
// binaries a user would run, exercising the shell's remote backend and
// the server's demo bootstrap together.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <string>

namespace {

/// Captures everything readable from `pipe` until `marker` appears (or
/// EOF); the server announces readiness with its "listening on" line.
std::string ReadUntil(FILE* pipe, const std::string& marker) {
  std::string out;
  int c;
  while ((c = fgetc(pipe)) != EOF) {
    out.push_back(static_cast<char>(c));
    if (out.find(marker) != std::string::npos && out.back() == '\n') break;
  }
  return out;
}

TEST(NetSmoke, ServedAndShellSpeakTheSameProtocol) {
  // Launch the server via sh so we learn both its pid (to stop it) and
  // its ephemeral port (from the banner).
  std::string server_cmd = std::string("exec ") + TSE_SERVED_BIN +
                           " --demo --port 0 2>&1 & echo pid $!; wait $!";
  FILE* server = popen(server_cmd.c_str(), "r");
  ASSERT_NE(server, nullptr);

  // The shell's "pid" echo and the server's banner race for the pipe:
  // either may come first.
  std::string banner = ReadUntil(server, "listening on ");
  if (banner.find("pid ") == std::string::npos) {
    banner += ReadUntil(server, "pid ");
  }
  ASSERT_NE(banner.find("pid "), std::string::npos) << banner;
  ASSERT_NE(banner.find("listening on 127.0.0.1:"), std::string::npos)
      << banner;
  const int pid = std::stoi(banner.substr(banner.find("pid ") + 4));
  const std::string port = banner.substr(
      banner.find("listening on 127.0.0.1:") + sizeof("listening on 127.0.0.1:") - 1,
      banner.find('\n', banner.find("listening on")) -
          (banner.find("listening on 127.0.0.1:") +
           sizeof("listening on 127.0.0.1:") - 1));

  // Drive the shell against it: reads, writes, a schema change, and a
  // server-side stats snapshot, all over the wire.
  std::string shell_cmd =
      std::string("printf 'show\\nnew Student\\nset 0 Student name "
                  "\"zoe\"\\nget 0 Student name\\nadd_attribute "
                  "register:bool to Student\\nget 0 Student "
                  "register\\nstats\\nquit\\n' | ") +
      TSE_SHELL_BIN + " connect 127.0.0.1:" + port + " 2>&1";
  FILE* shell = popen(shell_cmd.c_str(), "r");
  ASSERT_NE(shell, nullptr);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), shell)) > 0) out.append(buf, n);
  int shell_rc = pclose(shell);

  kill(pid, SIGTERM);
  std::string server_tail;
  while ((n = fread(buf, 1, sizeof(buf), server)) > 0) {
    server_tail.append(buf, n);
  }
  pclose(server);

  EXPECT_EQ(shell_rc, 0) << out;
  EXPECT_NE(out.find("connected to 127.0.0.1:" + port), std::string::npos)
      << out;
  EXPECT_NE(out.find("view Main v1"), std::string::npos) << out;
  EXPECT_NE(out.find("created object 0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"zoe\""), std::string::npos) << out;
  EXPECT_NE(out.find("view now at version 2"), std::string::npos) << out;
  // The post-change read proves the server session rebound: the new
  // attribute exists (default null) on the old object.
  EXPECT_NE(out.find("null"), std::string::npos) << out;
  // The stats snapshot came from the server process (empty when the
  // build compiles observability away).
#ifndef TSE_OBS_DISABLE
  EXPECT_NE(out.find("net.server.requests"), std::string::npos) << out;
#endif
  // And the server drained cleanly on SIGTERM.
  EXPECT_NE(server_tail.find("shutting down"), std::string::npos)
      << server_tail;
}

}  // namespace
