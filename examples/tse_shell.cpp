// An interactive TSE shell: drive transparent schema evolution with the
// paper's textual operator syntax. Reads commands from stdin (or runs a
// scripted demo when stdin is not a TTY and no input arrives).
//
// The shell is written once against `tse::Backend` and obtains every
// engine through `tse::Connect` — the embedded engine (the default), a
// remote tse_served, or a sharded cluster. Every command works
// identically against all three — the shell is the proof that the
// deployment-agnostic access layer exposes one surface, with no
// per-deployment branches outside Connect.
//
//   build/examples/tse_shell                    # embedded demo schema
//   build/examples/tse_shell connect HOST:PORT  # drive a tse_served
//   build/examples/tse_shell cluster H:P1,H:P2  # drive a shard fleet
//   > add_attribute register:bool to Student
//   > add_method is_adult = age >= 18 to Person
//   > show
//   > history
//
// Extra shell commands: `show` (current view), `extents`, `history`,
// `explain <Class>` (the select plan the cost-based planner would run),
// `session <view>` (open/switch the bound view), `sessionat <id>`
// (pin a historical view version), `connect <host:port> [view]`
// (switch to a remote backend), `cluster <h:p1,h:p2,...> [view]`
// (switch to a sharded fleet), `select <Class> <predicate>`,
// `new <Class>`, `set <oid> <Class> <attr> <expr>`,
// `get <oid> <Class> <attr>`,
// `snapshot open` / `snapshot read <oid> <Class> <path>` /
// `snapshot close` (pin an MVCC snapshot and read through it,
// DESIGN.md §13), `begin`/`commit`/`rollback`, `stats [reset]`,
// `trace on|off|json|tree|clear`, `quit`.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <tse/backend.h>
#include <tse/obs.h>

using namespace tse;
using objmodel::Value;
using objmodel::ValueType;
using schema::PropertySpec;

namespace {

/// Boots the demo schema (Person <- Student <- TA, view "Shell") with
/// a couple of objects, mirroring tse_served --demo — through the
/// Backend DDL surface, so it works against any deployment whose
/// database is empty.
Status BootstrapShellDemo(Backend* backend) {
  TSE_ASSIGN_OR_RETURN(
      ClassId person,
      backend->AddBaseClass("Person", {},
                            {PropertySpec::Attribute("name",
                                                     ValueType::kString),
                             PropertySpec::Attribute("age",
                                                     ValueType::kInt)}));
  TSE_ASSIGN_OR_RETURN(
      ClassId student,
      backend->AddBaseClass("Student", {person},
                            {PropertySpec::Attribute("major",
                                                     ValueType::kString)}));
  TSE_ASSIGN_OR_RETURN(ClassId ta, backend->AddBaseClass("TA", {student}, {}));
  TSE_RETURN_IF_ERROR(
      backend->CreateView("Shell", {{person, ""}, {student, ""}, {ta, ""}})
          .status());
  TSE_RETURN_IF_ERROR(backend->OpenSession("Shell"));
  TSE_RETURN_IF_ERROR(backend
                          ->Create("Student", {{"name", Value::Str("alice")},
                                               {"age", Value::Int(20)}})
                          .status());
  TSE_RETURN_IF_ERROR(backend
                          ->Create("TA", {{"name", Value::Str("carol")},
                                          {"age", Value::Int(24)}})
                          .status());
  return Status::OK();
}

/// Connects `spec` via tse::Connect and opens a session on `view` when
/// non-empty.
Result<std::unique_ptr<Backend>> ConnectSpec(const std::string& spec,
                                             const std::string& view) {
  TSE_ASSIGN_OR_RETURN(auto backend, Connect(spec));
  if (!view.empty()) {
    TSE_RETURN_IF_ERROR(backend->OpenSession(view));
  }
  return backend;
}

struct Shell {
  std::unique_ptr<Backend> backend;
  // After backend: a remote snapshot's best-effort close frame must go
  // out before the connection it rides on is torn down.
  std::unique_ptr<SnapshotHandle> snapshot;

  void Show() {
    auto text = backend->ViewToString();
    if (!text.ok()) {
      std::cout << "error: " << text.status().ToString() << "\n";
      return;
    }
    std::cout << text.value() << "\n";
  }

  void Extents() {
    auto classes = backend->ListClasses();
    if (!classes.ok()) {
      std::cout << "error: " << classes.status().ToString() << "\n";
      return;
    }
    for (const std::string& name : classes.value()) {
      auto extent = backend->Extent(name);
      if (!extent.ok()) {
        std::cout << name << ": error: " << extent.status().ToString() << "\n";
        continue;
      }
      std::cout << name << " (#" << extent.value().size() << "):";
      for (Oid oid : extent.value()) std::cout << " " << oid.ToString();
      std::cout << "\n";
    }
  }

  /// Replaces the backend (dropping any pinned snapshot first — it
  /// reads through the connection being torn down).
  void SwitchBackend(std::unique_ptr<Backend> next, const std::string& label,
                     const std::string& view) {
    snapshot.reset();
    backend = std::move(next);
    std::cout << "connected to " << label;
    if (!view.empty()) {
      std::cout << ", session on " << backend->view_name() << " v"
                << backend->view_version();
    }
    std::cout << "\n";
  }

  bool Handle(const std::string& line) {
    std::istringstream in(line);
    std::string head;
    in >> head;
    if (head.empty()) return true;
    if (head == "quit" || head == "exit") return false;
    if (head == "show") {
      Show();
      return true;
    }
    if (head == "extents") {
      Extents();
      return true;
    }
    if (head == "history") {
      auto text = backend->History();
      if (!text.ok()) {
        std::cout << "error: " << text.status().ToString() << "\n";
      } else {
        std::cout << text.value();
      }
      return true;
    }
    if (head == "explain") {
      std::string cls_name;
      in >> cls_name;
      if (cls_name.empty()) {
        std::cout << "usage: explain <Class>\n";
        return true;
      }
      auto text = backend->Explain(cls_name);
      if (!text.ok()) {
        std::cout << "error: " << text.status().ToString() << "\n";
      } else {
        std::cout << text.value();
      }
      return true;
    }
    if (head == "connect" || head == "cluster") {
      std::string target, view;
      in >> target >> view;
      const std::string spec =
          (head == "connect" ? "tcp:" : "cluster:") + target;
      auto next = ConnectSpec(spec, view);
      if (!next.ok()) {
        std::cout << "error: " << next.status().ToString() << "\n";
        return true;
      }
      SwitchBackend(std::move(next).value(), target, view);
      return true;
    }
    if (head == "session") {
      std::string view_name;
      in >> view_name;
      Status s = backend->OpenSession(view_name);
      if (!s.ok()) {
        std::cout << "error: " << s.ToString() << "\n";
        return true;
      }
      std::cout << "session now on " << backend->view_name() << " v"
                << backend->view_version() << "\n";
      return true;
    }
    if (head == "sessionat") {
      uint64_t raw = 0;
      if (!(in >> raw)) {
        std::cout << "usage: sessionat <view-id>\n";
        return true;
      }
      Status s = backend->OpenSessionAt(ViewId(raw));
      if (!s.ok()) {
        std::cout << "error: " << s.ToString() << "\n";
        return true;
      }
      std::cout << "session pinned to " << backend->view_name() << " v"
                << backend->view_version() << "\n";
      return true;
    }
    if (head == "begin" || head == "commit" || head == "rollback") {
      Status s = head == "begin"    ? backend->Begin()
                 : head == "commit" ? backend->Commit()
                                    : backend->Rollback();
      std::cout << (s.ok() ? "ok" : "error: " + s.ToString()) << "\n";
      return true;
    }
    if (head == "stats") {
      std::string arg;
      in >> arg;
      if (arg == "reset") {
        Status s = backend->ResetStats();
        std::cout << (s.ok() ? std::string("stats reset\n")
                             : "error: " + s.ToString() + "\n");
        return true;
      }
      auto text = backend->Stats(arg == "json");
      if (!text.ok()) {
        std::cout << "error: " << text.status().ToString() << "\n";
      } else {
        std::cout << text.value();
      }
      return true;
    }
    if (head == "trace") {
      std::string arg;
      in >> arg;
      obs::Tracer& tracer = obs::Tracer::Instance();
      if (arg == "on") {
#ifdef TSE_OBS_DISABLE
        std::cout << "tracing unavailable (built with TSE_OBS_DISABLE)\n";
#else
        tracer.set_enabled(true);
        std::cout << "tracing on\n";
#endif
      } else if (arg == "off") {
        tracer.set_enabled(false);
        std::cout << "tracing off\n";
      } else if (arg == "json") {
        std::cout << tracer.DumpJson() << "\n";
      } else if (arg == "tree") {
        std::cout << tracer.DumpTree();
      } else if (arg == "clear") {
        tracer.Clear();
        std::cout << "trace buffer cleared\n";
      } else {
        std::cout << "usage: trace on|off|json|tree|clear\n";
      }
      return true;
    }
    if (head == "snapshot") {
      std::string action;
      in >> action;
      if (action == "open") {
        auto snap = backend->GetSnapshot();
        if (!snap.ok()) {
          std::cout << "error: " << snap.status().ToString() << "\n";
          return true;
        }
        snapshot = std::move(snap).value();
        std::cout << "snapshot open: view " << snapshot->view_name() << " v"
                  << snapshot->view_version() << " at epoch "
                  << snapshot->epoch() << "\n";
        return true;
      }
      if (action == "read") {
        uint64_t raw = 0;
        std::string cls_name, path;
        if (!(in >> raw >> cls_name >> path)) {
          std::cout << "usage: snapshot read <oid> <Class> <attr-or-path>\n";
          return true;
        }
        if (!snapshot) {
          std::cout << "error: no snapshot open; run snapshot open\n";
          return true;
        }
        auto v = snapshot->Get(Oid(raw), cls_name, path);
        std::cout << (v.ok() ? v.value().ToString()
                             : "error: " + v.status().ToString())
                  << "\n";
        return true;
      }
      if (action == "close") {
        if (!snapshot) {
          std::cout << "error: no snapshot open\n";
          return true;
        }
        snapshot.reset();
        std::cout << "snapshot closed\n";
        return true;
      }
      std::cout << "usage: snapshot open | snapshot read <oid> <Class> "
                   "<attr-or-path> | snapshot close\n";
      return true;
    }
    if (head == "select") {
      std::string cls_name, predicate;
      in >> cls_name;
      std::getline(in, predicate);
      if (cls_name.empty() ||
          predicate.find_first_not_of(" \t") == std::string::npos) {
        std::cout << "usage: select <Class> <predicate>\n";
        return true;
      }
      auto hits = backend->Select(cls_name, predicate);
      if (!hits.ok()) {
        std::cout << "error: " << hits.status().ToString() << "\n";
        return true;
      }
      std::cout << cls_name << " (#" << hits.value().size() << "):";
      for (Oid oid : hits.value()) std::cout << " " << oid.ToString();
      std::cout << "\n";
      return true;
    }
    if (head == "new") {
      std::string cls_name;
      in >> cls_name;
      auto oid = backend->Create(cls_name, {});
      std::cout << (oid.ok() ? "created object " + oid.value().ToString()
                             : "error: " + oid.status().ToString())
                << "\n";
      return true;
    }
    if (head == "set" || head == "get") {
      uint64_t raw;
      std::string cls_name, attr;
      in >> raw >> cls_name >> attr;
      if (head == "get") {
        auto v = backend->Get(Oid(raw), cls_name, attr);
        std::cout << (v.ok() ? v.value().ToString()
                             : "error: " + v.status().ToString())
                  << "\n";
        return true;
      }
      std::string expr_text;
      std::getline(in, expr_text);
      Status s = backend->SetFromText(Oid(raw), cls_name, attr, expr_text);
      std::cout << (s.ok() ? "ok" : "error: " + s.ToString()) << "\n";
      return true;
    }
    // Everything else is a schema-change command, applied to the bound
    // view; the session transparently rebinds to the new version (on a
    // cluster, via the two-phase fleet coordinator). The root span
    // makes each request one tree in the trace: parse and the TSEM
    // pipeline (translate, integrate, regenerate) appear as its
    // descendants.
    TSE_TRACE_SPAN("shell.schema_change");
    Status s = backend->Apply(line).status();
    if (!s.ok()) {
      std::cout << "rejected: " << s.ToString() << "\n";
      return true;
    }
    std::cout << "ok — view now at version " << backend->view_version()
              << "\n";
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  bool demo = false;
  if (argc > 1 && std::string(argv[1]) == "--demo") {
    demo = true;
  } else if (argc > 2 && (std::string(argv[1]) == "connect" ||
                          std::string(argv[1]) == "cluster")) {
    // Start directly against a running deployment: `tse_shell connect
    // HOST:PORT [view]` or `tse_shell cluster H:P1,H:P2,... [view]`.
    // Defaults to the server demo view "Main".
    const std::string target = argv[2];
    const std::string view = argc > 3 ? argv[3] : "Main";
    const std::string spec =
        (std::string(argv[1]) == "connect" ? "tcp:" : "cluster:") + target;
    auto remote = ConnectSpec(spec, view);
    if (!remote.ok()) {
      std::cerr << "cannot connect: " << remote.status().ToString() << "\n";
      return 1;
    }
    shell.backend = std::move(remote).value();
    std::cout << "TSE shell — connected to " << target << ", view "
              << shell.backend->view_name() << " v"
              << shell.backend->view_version() << "\n";
  } else if (argc > 1) {
    std::cerr << "usage: " << argv[0]
              << " [--demo | connect HOST:PORT [view]"
                 " | cluster H:P1,H:P2,... [view]]\n";
    return 2;
  }

  if (!shell.backend) {
    auto embedded = Connect("embedded:");
    if (!embedded.ok()) {
      std::cerr << "cannot open embedded engine: "
                << embedded.status().ToString() << "\n";
      return 1;
    }
    shell.backend = std::move(embedded).value();
    Status booted = BootstrapShellDemo(shell.backend.get());
    if (!booted.ok()) {
      std::cerr << "demo bootstrap failed: " << booted.ToString() << "\n";
      return 1;
    }
    std::cout << "TSE shell — initial view:\n";
    shell.Show();
  }

  // Scripted demo when requested (also exercised by the test drive).
  if (demo) {
    const char* script[] = {
        "add_attribute register:bool to Student",
        "add_method is_adult = age >= 18 to Person",
        "show",
        "get 0 Person is_adult",
        "snapshot open",
        "snapshot read 0 Person name",
        "snapshot close",
        "insert_class SeniorStudent between Student-TA",
        "show",
        "session Shell",
        "history",
    };
    for (const char* line : script) {
      std::cout << "> " << line << "\n";
      shell.Handle(line);
    }
    return 0;
  }

  std::string line;
  std::cout << "> " << std::flush;
  while (std::getline(std::cin, line)) {
    if (!shell.Handle(line)) break;
    std::cout << "> " << std::flush;
  }
  return 0;
}
