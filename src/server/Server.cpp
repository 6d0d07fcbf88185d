//===- server/Server.cpp - The flixd daemon core --------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace flix;
using namespace flix::server;

namespace {

/// RAII in-flight slot: counts the request against MaxInflight and
/// releases on every return path.
class InflightSlot {
public:
  InflightSlot(std::atomic<unsigned> &Ctr, unsigned Max)
      : Ctr(Ctr),
        Admitted(Ctr.fetch_add(1, std::memory_order_acq_rel) < Max) {}
  ~InflightSlot() { Ctr.fetch_sub(1, std::memory_order_acq_rel); }
  bool admitted() const { return Admitted; }

private:
  std::atomic<unsigned> &Ctr;
  bool Admitted;
};

const Json *strField(const Json &Obj, const char *Name) {
  const Json *J = Obj.get(Name);
  return J && J->isStr() ? J : nullptr;
}

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= size_t(N);
  }
  return true;
}

} // namespace

Server::Server(ServerOptions O) : Opt(std::move(O)) {}

Server::~Server() {
  stop();
  wait();
}

std::shared_ptr<Session> Server::findDb(const std::string &Name) {
  std::lock_guard<std::mutex> Lk(RegMu);
  auto It = Dbs.find(Name);
  return It == Dbs.end() ? nullptr : It->second;
}

std::string Server::handleLine(std::string_view Line) {
  RequestsTotal.fetch_add(1, std::memory_order_relaxed);
  auto Reply = [this](Json J) {
    const Json *Ok = J.get("ok");
    if (Ok && Ok->isBool() && !Ok->B)
      ErrorsTotal.fetch_add(1, std::memory_order_relaxed);
    return writeJson(J);
  };

  if (Line.size() > Opt.MaxLineBytes)
    return Reply(errorReply(Json::null(), ErrCode::LineTooLong,
                            "request line exceeds " +
                                std::to_string(Opt.MaxLineBytes) +
                                " bytes"));
  ErrCode Code = ErrCode::BadRequest;
  std::string Err;
  std::optional<Request> R = decodeRequest(Line, Code, Err);
  if (!R) {
    // Best-effort id echo: when the line parsed but the request shape
    // was bad (unknown op, missing fields), clients still get their
    // correlation id back.
    Json Id;
    if (Code != ErrCode::ParseError) {
      Json Raw;
      std::string Ignore;
      if (parseJson(Line, Raw, Ignore))
        if (const Json *IdJ = Raw.get("id"))
          Id = *IdJ;
    }
    return Reply(errorReply(Id, Code, Err));
  }
  return Reply(handleRequest(*R));
}

Json Server::handleRequest(const Request &R) {
  if (R.Operation == Op::Ping) {
    Json Ok = okReply(R.Id);
    Ok.set("server", Json::str("flixd"));
    return Ok;
  }
  if (R.Operation == Op::Shutdown) {
    // Reply first; the connection loop writes the reply and then
    // initiates the stop (stopping() turned true here).
    Stopping.store(true, std::memory_order_release);
    StopCV.notify_all();
    return okReply(R.Id);
  }
  if (stopping())
    return errorReply(R.Id, ErrCode::ShuttingDown, "server is stopping");
  if (R.DL.active() && R.DL.expired())
    return errorReply(R.Id, ErrCode::DeadlineExceeded,
                      "deadline expired before dispatch");

  InflightSlot Slot(Inflight, Opt.MaxInflight);
  if (!Slot.admitted()) {
    OverloadRejections.fetch_add(1, std::memory_order_relaxed);
    return errorReply(R.Id, ErrCode::Overloaded,
                      "in-flight request limit (" +
                          std::to_string(Opt.MaxInflight) + ") reached");
  }

  switch (R.Operation) {
  case Op::LoadProgram:
    return handleLoad(R);
  case Op::AddFacts:
    return handleMutate(R, /*Retract=*/false);
  case Op::RetractFacts:
    return handleMutate(R, /*Retract=*/true);
  case Op::Query:
    return handleQuery(R);
  case Op::Stats:
    return handleStats(R);
  case Op::ListDbs: {
    Json Names = Json::array();
    {
      std::lock_guard<std::mutex> Lk(RegMu);
      for (const auto &[Name, S] : Dbs) {
        (void)S;
        Names.Arr.push_back(Json::str(Name));
      }
    }
    Json Ok = okReply(R.Id);
    Ok.set("dbs", std::move(Names));
    return Ok;
  }
  case Op::DropDb: {
    const Json *DbJ = strField(R.Raw, "db");
    if (!DbJ)
      return errorReply(R.Id, ErrCode::BadRequest,
                        "missing string field 'db'");
    std::shared_ptr<Session> Victim; // destroyed outside RegMu
    {
      std::lock_guard<std::mutex> Lk(RegMu);
      auto It = Dbs.find(DbJ->Str);
      if (It == Dbs.end())
        return errorReply(R.Id, ErrCode::NoSuchDb,
                          "no database named '" + DbJ->Str + "'");
      Victim = std::move(It->second);
      Dbs.erase(It);
    }
    return okReply(R.Id);
  }
  case Op::Ping:
  case Op::Shutdown:
    break; // handled above
  }
  return errorReply(R.Id, ErrCode::BadRequest, "unreachable op");
}

Json Server::handleLoad(const Request &R) {
  const Json *DbJ = strField(R.Raw, "db");
  const Json *SrcJ = strField(R.Raw, "source");
  if (!DbJ || !SrcJ)
    return errorReply(R.Id, ErrCode::BadRequest,
                      "load_program needs string fields 'db' and 'source'");
  const Json *RepJ = R.Raw.get("replace");
  bool Replace = RepJ && RepJ->isBool() && RepJ->B;
  const std::string &Name = DbJ->Str;

  {
    std::lock_guard<std::mutex> Lk(RegMu);
    if (!Replace && Dbs.count(Name))
      return errorReply(R.Id, ErrCode::DbExists,
                        "database '" + Name +
                            "' already exists (pass \"replace\": true)");
    if (!LoadingNames.insert(Name).second)
      return errorReply(R.Id, ErrCode::DbExists,
                        "database '" + Name + "' is being loaded");
  }

  Session::Options SO;
  SO.Solve = Opt.Solve;
  SO.MaxPendingFacts = Opt.MaxPendingFactsPerDb;
  auto S = std::make_shared<Session>(Name, SO);
  ErrCode Code = ErrCode::CompileError;
  std::string Err;
  bool Loaded = S->load(SrcJ->Str, R.DL, Code, Err);

  std::shared_ptr<Session> Replaced; // destroyed outside RegMu
  {
    std::lock_guard<std::mutex> Lk(RegMu);
    LoadingNames.erase(Name);
    if (Loaded) {
      auto It = Dbs.find(Name);
      if (It != Dbs.end()) {
        Replaced = std::move(It->second);
        It->second = std::move(S);
      } else {
        Dbs.emplace(Name, std::move(S));
      }
    }
  }
  if (!Loaded)
    return errorReply(R.Id, Code, Err);
  Json Ok = okReply(R.Id);
  Ok.set("db", Json::str(Name));
  Ok.set("generation", Json::integer(1));
  return Ok;
}

Json Server::handleMutate(const Request &R, bool Retract) {
  const Json *DbJ = strField(R.Raw, "db");
  const Json *PredJ = strField(R.Raw, "pred");
  const Json *RowsJ = R.Raw.get("rows");
  if (!DbJ || !PredJ || !RowsJ)
    return errorReply(R.Id, ErrCode::BadRequest,
                      "mutation needs string fields 'db' and 'pred' and "
                      "an array field 'rows'");
  std::shared_ptr<Session> S = findDb(DbJ->Str);
  if (!S)
    return errorReply(R.Id, ErrCode::NoSuchDb,
                      "no database named '" + DbJ->Str + "'");
  Session::ApplyResult Res =
      S->applyFacts(PredJ->Str, *RowsJ, Retract, R.DL);
  if (!Res.Ok)
    return errorReply(R.Id, Res.Code, Res.Error);
  Json Ok = okReply(R.Id);
  Ok.set("generation", Json::integer(int64_t(Res.Generation)));
  Ok.set("rows", Json::integer(int64_t(Res.StagedRows)));
  Ok.set("batch_seconds", Json::number(Res.BatchSeconds));
  Ok.set("full_resolve", Json::boolean(Res.FullResolve));
  Ok.set("coalesced", Json::boolean(Res.Coalesced));
  return Ok;
}

Json Server::handleQuery(const Request &R) {
  const Json *DbJ = strField(R.Raw, "db");
  const Json *PredJ = strField(R.Raw, "pred");
  if (!DbJ || !PredJ)
    return errorReply(R.Id, ErrCode::BadRequest,
                      "query needs string fields 'db' and 'pred'");
  std::shared_ptr<Session> S = findDb(DbJ->Str);
  if (!S)
    return errorReply(R.Id, ErrCode::NoSuchDb,
                      "no database named '" + DbJ->Str + "'");
  const Json *KeyJ = R.Raw.get("key");
  int64_t Limit = 0;
  if (const Json *LimJ = R.Raw.get("limit")) {
    if (!LimJ->isInt() || LimJ->Int < 0)
      return errorReply(R.Id, ErrCode::BadRequest,
                        "'limit' must be a non-negative integer");
    Limit = LimJ->Int;
  }
  Session::QueryReply Q = S->query(PredJ->Str, KeyJ, Limit);
  if (!Q.Ok)
    return errorReply(R.Id, Q.Code, Q.Error);
  Json Ok = okReply(R.Id);
  for (auto &[Key, Val] : Q.Fields.Obj)
    Ok.set(Key, std::move(Val));
  return Ok;
}

Json Server::handleStats(const Request &R) {
  Json Ok = okReply(R.Id);
  if (const Json *DbJ = strField(R.Raw, "db")) {
    std::shared_ptr<Session> S = findDb(DbJ->Str);
    if (!S)
      return errorReply(R.Id, ErrCode::NoSuchDb,
                        "no database named '" + DbJ->Str + "'");
    Ok.set("db", S->statsJson());
    return Ok;
  }
  Json Srv = Json::object();
  Srv.set("requests_total",
          Json::integer(int64_t(RequestsTotal.load())));
  Srv.set("errors_total", Json::integer(int64_t(ErrorsTotal.load())));
  Srv.set("overload_rejections",
          Json::integer(int64_t(OverloadRejections.load())));
  Srv.set("connections_total",
          Json::integer(int64_t(ConnectionsTotal.load())));
  Srv.set("active_connections",
          Json::integer(int64_t(ActiveConns.load())));
  Srv.set("inflight", Json::integer(int64_t(Inflight.load())));
  Ok.set("server", std::move(Srv));

  std::vector<std::shared_ptr<Session>> All;
  {
    std::lock_guard<std::mutex> Lk(RegMu);
    for (const auto &[Name, S] : Dbs) {
      (void)Name;
      All.push_back(S);
    }
  }
  Json DbsJ = Json::array();
  for (const auto &S : All)
    DbsJ.Arr.push_back(S->statsJson());
  Ok.set("dbs", std::move(DbsJ));
  return Ok;
}

//===----------------------------------------------------------------------===//
// Socket layer
//===----------------------------------------------------------------------===//

bool Server::start(std::string &Err) {
  int Fd = -1;
  if (!Opt.UnixPath.empty()) {
    sockaddr_un Addr{};
    if (Opt.UnixPath.size() >= sizeof(Addr.sun_path)) {
      Err = "unix socket path too long";
      return false;
    }
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opt.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Opt.UnixPath.c_str());
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Err = std::string("bind(") + Opt.UnixPath +
            "): " + std::strerror(errno);
      ::close(Fd);
      return false;
    }
  } else {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Opt.Port);
    if (::inet_pton(AF_INET, Opt.Host.c_str(), &Addr.sin_addr) != 1) {
      Err = "bad listen address '" + Opt.Host + "'";
      ::close(Fd);
      return false;
    }
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Err = std::string("bind(") + Opt.Host + ":" +
            std::to_string(Opt.Port) + "): " + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) ==
        0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(Fd, 64) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  ListenFd.store(Fd, std::memory_order_release);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!stopping()) {
    int LFd = ListenFd.load(std::memory_order_acquire);
    if (LFd < 0)
      break;
    int Fd = ::accept(LFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listener closed by stop()
    }
    ConnectionsTotal.fetch_add(1, std::memory_order_relaxed);
    if (ActiveConns.load(std::memory_order_acquire) >=
        Opt.MaxConnections) {
      OverloadRejections.fetch_add(1, std::memory_order_relaxed);
      std::string Line =
          writeJson(errorReply(Json::null(), ErrCode::Overloaded,
                               "connection limit (" +
                                   std::to_string(Opt.MaxConnections) +
                                   ") reached")) +
          "\n";
      writeAll(Fd, Line.data(), Line.size());
      ::close(Fd);
      continue;
    }
    ActiveConns.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> Lk(ConnMu);
    if (stopping()) {
      ActiveConns.fetch_sub(1, std::memory_order_acq_rel);
      ::close(Fd);
      break;
    }
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { connectionLoop(Fd); });
  }
}

void Server::connectionLoop(int Fd) {
  std::string Buf;
  char Chunk[64 * 1024];
  bool Close = false;
  while (!Close) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // peer closed, or stop() shut us down
    Buf.append(Chunk, size_t(N));

    size_t Start = 0;
    while (true) {
      size_t Nl = Buf.find('\n', Start);
      if (Nl == std::string::npos)
        break;
      std::string_view Line(Buf.data() + Start, Nl - Start);
      if (!Line.empty() && Line.back() == '\r')
        Line.remove_suffix(1);
      Start = Nl + 1;
      if (Line.empty())
        continue;
      // Oversized-but-framed lines still get their line_too_long reply
      // from handleLine, but the connection is closed afterwards: a
      // client ignoring the size bound cannot be trusted to frame the
      // rest of the stream.
      bool TooLong = Line.size() > Opt.MaxLineBytes;
      std::string Reply = handleLine(Line);
      Reply.push_back('\n');
      if (!writeAll(Fd, Reply.data(), Reply.size()) || TooLong) {
        Close = true;
        break;
      }
      if (stopping()) {
        // A shutdown request was served (possibly on this very
        // connection, whose reply is already written) — tear the
        // socket layer down.
        stop();
        Close = true;
        break;
      }
    }
    if (Start > 0)
      Buf.erase(0, Start);
    if (!Close && Buf.size() > Opt.MaxLineBytes) {
      // Oversized line: no newline within the bound. Reply and close —
      // framing cannot resync.
      std::string Reply =
          writeJson(errorReply(Json::null(), ErrCode::LineTooLong,
                               "request line exceeds " +
                                   std::to_string(Opt.MaxLineBytes) +
                                   " bytes")) +
          "\n";
      writeAll(Fd, Reply.data(), Reply.size());
      Close = true;
    }
  }
  {
    // Deregister before closing: once closed the fd number can be
    // reused, and stop() must never shut down a recycled descriptor.
    std::lock_guard<std::mutex> Lk(ConnMu);
    for (size_t I = 0; I < ConnFds.size(); ++I) {
      if (ConnFds[I] == Fd) {
        ConnFds.erase(ConnFds.begin() + I);
        break;
      }
    }
  }
  ::shutdown(Fd, SHUT_RDWR);
  ::close(Fd);
  ActiveConns.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::closeListener() {
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd >= 0) {
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
}

void Server::stop() {
  Stopping.store(true, std::memory_order_release);
  closeListener();
  {
    // Shut down (do not close — reader threads own the close) every
    // live connection so blocked recv()s return.
    std::lock_guard<std::mutex> Lk(ConnMu);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  StopCV.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> Lk(StopMu);
    StopCV.wait(Lk, [this] { return stopping(); });
  }
  closeListener();
  if (AcceptThread.joinable())
    AcceptThread.join();
  // After the accept thread exits no new connection threads appear;
  // join the existing ones (they unblock via stop()'s fd shutdown or
  // their own exit).
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lk(ConnMu);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  if (!Opt.UnixPath.empty())
    ::unlink(Opt.UnixPath.c_str());
}
