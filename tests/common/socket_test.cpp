// The stream transport under the daemon and its client, over socketpairs:
// LineReader's receive window (lines in pieces of every size around the old
// 4 KiB chunk and the 64 KiB window, several lines in one recv, a line that
// outlives a buffer compaction, the unterminated tail at EOF, the max_line
// bound) and Socket::send_all over parts resuming after partial writes.
#include "common/socket.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace bsr {
namespace {

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

/// `n` bytes that hold no newline and differ from line to line.
std::string line_of(std::size_t n, char seed) {
  std::string s(n, ' ');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (seed + i * 7) % 26);
  }
  return s;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Every line `reader` returns until EOF.
std::vector<std::string> read_all(LineReader& reader) {
  std::vector<std::string> lines;
  while (std::optional<std::string> line = reader.read_line()) {
    lines.push_back(*std::move(line));
  }
  return lines;
}

/// Lets the peer's writes go out whole before the reader starts, so the
/// reads see the bytes in windows of exactly kWindow.
void widen_send_buffer(const Socket& s) {
  const int bytes = 1 << 20;
  ASSERT_EQ(::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)),
            0);
}

TEST(LineReader, LinesArriveWholeWhateverTheirPieces) {
  const std::vector<std::string> lines = {
      "a", "", line_of(4095, 1), line_of(4096, 2), line_of(70000, 3),
      line_of(LineReader::kWindow, 4), "last"};
  const std::string bytes = joined(lines);
  for (const std::size_t piece :
       {std::size_t{1}, std::size_t{4095}, std::size_t{4097},
        std::size_t{65536}, std::size_t{65537}}) {
    auto [out, in] = socket_pair();
    std::thread writer([&out = out, &bytes, piece] {
      for (std::size_t at = 0; at < bytes.size(); at += piece) {
        out.send_all({std::string_view(bytes).substr(at, piece)});
      }
      out.close();
    });
    LineReader reader(in);
    const std::vector<std::string> got = read_all(reader);
    writer.join();
    EXPECT_EQ(got, lines) << "pieces of " << piece;
  }
}

TEST(LineReader, SeveralLinesInOneRecvComeOutOneByOne) {
  auto [out, in] = socket_pair();
  out.send_all({"one\ntwo\n\nfour\n"});
  out.close();
  LineReader reader(in);
  EXPECT_EQ(read_all(reader),
            (std::vector<std::string>{"one", "two", "", "four"}));
}

TEST(LineReader, LineSpanningABufferCompactionStaysWhole) {
  // Written whole before the first read, so the reads take 64 KiB windows:
  // the first holds line 1 and the start of line 2 and is grown to hold
  // line 2; the second window ends inside line 3, whose start then moves
  // to the front of the grown buffer before the third read.
  auto [out, in] = socket_pair();
  widen_send_buffer(out);
  const std::vector<std::string> lines = {
      line_of(40000, 5), line_of(50000, 6), line_of(60000, 7)};
  out.send_all({joined(lines)});
  out.close();
  LineReader reader(in);
  EXPECT_EQ(read_all(reader), lines);
}

TEST(LineReader, UnterminatedTailIsDroppedAtEof) {
  auto [out, in] = socket_pair();
  out.send_all({"whole\npartial"});
  out.close();
  LineReader reader(in);
  EXPECT_EQ(reader.read_line(), std::optional<std::string>("whole"));
  EXPECT_EQ(reader.read_line(), std::nullopt);
  EXPECT_EQ(reader.read_line(), std::nullopt);
}

TEST(LineReader, MaxLineIsRefusedWithinOneWindow) {
  constexpr std::size_t kMaxLine = 100000;
  {
    // A whole line one byte over the bound, in one piece.
    auto [out, in] = socket_pair();
    widen_send_buffer(out);
    out.send_all({line_of(kMaxLine, 8), "x\nnext\n"});
    LineReader reader(in, kMaxLine);
    EXPECT_THROW((void)reader.read_line(), std::length_error);
  }
  {
    // A line with no end: refused before more than one window past the
    // bound has been taken off the socket.
    auto [out, in] = socket_pair();
    const std::string endless = line_of(std::size_t{1} << 20, 9);
    std::thread writer([&out = out, &endless] {
      try {
        out.send_all({endless});
      } catch (const std::runtime_error&) {
        // The reader closed before taking everything.
      }
      out.close();
    });
    LineReader reader(in, kMaxLine);
    try {
      (void)reader.read_line();
      ADD_FAILURE() << "an endless line was not refused";
    } catch (const std::length_error& e) {
      EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
          << e.what();
    }
    std::size_t left = 0;
    char chunk[65536];
    ssize_t n = 0;
    while ((n = ::recv(in.fd(), chunk, sizeof(chunk), 0)) > 0) {
      left += static_cast<std::size_t>(n);
    }
    writer.join();
    const std::size_t taken = endless.size() - left;
    EXPECT_GT(taken, kMaxLine);
    EXPECT_LE(taken, kMaxLine + LineReader::kWindow);
  }
}

std::atomic<int> interrupts{0};

void count_interrupt(int /*signal*/) { interrupts.fetch_add(1); }

TEST(SocketSendAll, PartsArriveAsOneStreamAfterPartialWrites) {
  // A blocking sendmsg() that a signal interrupts returns what it has
  // written so far. With a small send buffer and a slow reader the writer
  // is blocked most of the time, and a stream of SIGUSR1 (no SA_RESTART)
  // cuts its writes short, inside parts and at their seams.
  struct sigaction action = {};
  struct sigaction previous = {};
  action.sa_handler = count_interrupt;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  auto sockets = socket_pair();
  Socket& out = sockets.first;
  const Socket& in = sockets.second;
  const int small = 4096;
  ASSERT_EQ(
      ::setsockopt(out.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  const std::string head = line_of(70000, 10);
  const std::string body = line_of(40000, 11);
  const std::string expected = head + "bc" + body + "}\n";

  interrupts.store(0);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    out.send_all({head, "", "bc", body, "}\n"});
    out.close();
    done.store(true);
  });
  const pthread_t target = writer.native_handle();
  std::thread interrupter([&] {
    while (!done.load()) {
      ::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::string got;
  char chunk[1024];
  ssize_t n = 0;
  while ((n = ::recv(in.fd(), chunk, sizeof(chunk), 0)) > 0) {
    got.append(chunk, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // The interrupter first: it stops once the writer is done, and the
  // writer's thread id stays valid until it is joined.
  interrupter.join();
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_GT(interrupts.load(), 0);
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
}

TEST(SocketSendAll, RefusesMorePartsThanItHolds) {
  const auto sockets = socket_pair();
  EXPECT_THROW(
      sockets.first.send_all({"1", "2", "3", "4", "5", "6", "7", "8", "9"}),
      std::invalid_argument);
  static_assert(Socket::kMaxParts == 8);
}

}  // namespace
}  // namespace bsr
