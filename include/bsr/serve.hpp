// bsr/serve.hpp — sweep-as-a-service behind the facade: the bsr_served
// daemon's building blocks (durable result store, one result table for
// finished and in-flight runs, admission control) as a library.
//
// The economics of simulator experiments change once results are shared:
// every RunConfig has an exact fingerprint (RunConfig::fingerprint()), so a
// result computed once — by anyone, in any process, at any time — answers
// every later request for the same configuration byte-for-byte. This header
// packages that as composable layers:
//
//   bsr::serve::DiskResultStore store("/var/tmp/bsr-store");
//   cfg.validate();
//   auto record = store.load_record(cfg.fingerprint());  // cross-process
//   // on a hit: record->report, and record->json, the report's stored text
//
//   bsr::serve::ServerConfig scfg;                  // or serve it:
//   scfg.socket_path = "/tmp/bsr.sock";
//   scfg.store_dir = "/var/tmp/bsr-store";
//   bsr::serve::Server server(scfg);
//   server.start();                                 // bsr_served is this + wait()
//
//   auto client = bsr::serve::Client::connect_unix_socket("/tmp/bsr.sock");
//   auto response = client.run(R"({"n":4096,"strategy":"bsr"})");
//
// Guarantees (tests/serve/ asserts each):
//   * Byte-identity: a warm response — repeat request, other process, or
//     daemon restart over the same store directory — is byte-identical to
//     the cold response that executed the run (serialization is a fixpoint
//     and stores/caches hold serialized text, never re-serialized structs).
//   * Exactly once: a daemon executes each fingerprint once. N concurrent
//     requests for it cost one execution (the other N-1 wait and share it),
//     and the finished result stays in the same table for later requests.
//     A failed run is forgotten, so the next request runs it again.
//   * Bounded admission: at most queue_depth connections wait for a worker;
//     beyond that, clients get one explicit
//     {"ok":false,"error":"overloaded","retry":true} line, never an
//     unbounded queue.
//   * Loud store misses: corrupt, old-schema, or mismatched records warn on
//     stderr and count as misses — never a crash, never a wrong result.
//
// The wire protocol (newline-delimited JSON over a Unix socket or localhost
// TCP) is specified in docs/SERVING.md; serve/protocol.hpp implements it.
#pragma once

#include "serve/client.hpp"
#include "serve/report_json.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

// namespace bsr::serve — everything above re-opens here; the facade adds no
// aliases because serve types are already spelled bsr::serve::X:
//
//   DiskResultStore / StoreStats        (serve/store.hpp)
//   Server / ServerConfig / ServeStats  (serve/server.hpp)
//   Client                              (serve/client.hpp)
//   serialize_report / deserialize_report / read_report /
//   serialize_config / config_from_json (serve/report_json.hpp)
