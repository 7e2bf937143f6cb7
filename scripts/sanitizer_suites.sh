#!/usr/bin/env bash
# The sanitizer suites: one list of test targets and one ctest filter per
# sanitizer, built and run in that sanitizer's tree. Tier-1 (stages 2 and
# 3 of scripts/tier1.sh) and CI's tsan-threads and asan-serve-pipeline
# jobs all run this script, so their lists cannot drift apart.
#
#   scripts/sanitizer_suites.sh thread    # build-tsan: ThreadSanitizer
#   scripts/sanitizer_suites.sh address   # build-asan: ASan + UBSan
#
# Only the listed test binaries are built; the figure benches and
# examples need no instrumentation. A tree that is already configured
# (CI configures it from its preset) keeps its generator and build type.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

case "${1:-}" in
  thread)
    BUILD=build-tsan
    # Races in the threaded code paths. The serve suite covers the RCU
    # hot-reload race and the pooled batch lookups; the pipeline suites
    # cover the DAG scheduler's drain loop on the fork-join worker pool
    # (layered-graph stress, N stages at once on N workers), real
    # two-worker campaigns whose months hand RIBs, prefixes and snapshots
    # to each other in memory (PipelineResume.SerialAndDag, byte-identical
    # to the serial schedule, and ConsumersOfCachedProducers, where some
    # consumers load files instead), a traced two-worker campaign, and the
    # graceful-stop flag against in-flight stages; the obs suites race
    # sharded metric increments and trace spans against concurrent
    # scrapes/serialization. The net suites race the epoll workers:
    # pipelined QUERY traffic over several connections against RELOAD
    # hot-swaps, slow-reader backpressure, and the acceptor's inbox
    # handoff. The detection suite asserts byte-identity with the serial
    # oracle at every thread count, on a scale-3 universe too, so a race
    # would also surface as a wrong answer. The stream suites race delta
    # hot-reloads against concurrent sp_serve queries. The chaos soak
    # suite races the entire serving stack at once: probe threads checking
    # answers, fault injection, RELOAD churn.
    SANITIZE=thread
    TARGETS=(core_detect_parallel_test core_sptuner_parallel_test
      serve_lookup_test serve_service_test
      core_worker_pool_test pipeline_stage_graph_test pipeline_resume_test
      pipeline_trace_test
      obs_metrics_test obs_trace_test
      net_server_test net_protocol_test
      stream_spdl_test stream_serve_delta_test
      chaos_scenario_test chaos_soak_test pipeline_signal_test)
    FILTER='DetectParallel|Parallel|Serve|PipelineStageGraph|PipelineResume\.SerialAndDag|PipelineResume\.ConsumersOfCachedProducers|PipelineTrace|PipelineSignal|WorkerPool|Obs|NetServer|NetProtocol|Stream|Chaos'
    ;;
  address)
    BUILD=build-asan
    # Memory safety of the serve path, the campaign runner, the
    # byte-level parsers and the flat corpus. The serve suites drive the
    # .sibdb mmap loader over round trips and mutated and truncated
    # images, LookupEngine against a linear-scan oracle, and the RCU
    # service's hot-reload race; the pipeline suites drive the stage DAG
    # scheduler and checkpointed resume over real campaigns. The CSV suite
    # checks the one CSV tokenizer, io::CsvCursor, against the
    # state-machine reference on seeded random documents (quoted commas,
    # CRs, LFs and "" escapes, bare CRs, blank lines, open quotes), rows
    # and row lines both; the snapshot-CSV and sibling-list suites drive
    # the cursor's index arithmetic over file bytes (quoted fields, CRLF,
    # bare CR, blank lines, cut-off and malformed files) against the
    # readers they replaced, and round-trip every month of a campaign
    # universe's snapshots. The address suite drives the one-pass IPv6
    # parser's group array over 4M random and structured strings against
    # the tokenizing reference. The corpus, reference-corpus, SetCorpus
    # and SP-Tuner suites drive the sorted-edge build's uint32 offset
    # arithmetic over its CSRs and SP-Tuner's spans into them; the
    # reference-corpus corner cases drive the announcement interval
    # table's per-length host-bit masks (a shift by the full address width
    # is undefined) and its ends at the top of each family's space. The
    # SP-Tuner reference suite drives the tuner's row indexes into the
    # host ranges and its per-domain mask scratch on seeded months. The
    # zone-file and domain-name suites drive the master-file tokenizer's
    # index arithmetic (comments, quotes, parenthesized continuations,
    # unterminated quotes and parens), the MRT and decoder-robustness
    # suites drive the TABLE_DUMP_V2 and BGP4MP decoders over golden,
    # truncated, bit-flipped and random dumps, and the RIB suite sends
    # hand-made and campaign RIBs through to_mrt, the codec and from_mrt.
    SANITIZE=address,undefined
    TARGETS=(serve_sibdb_test serve_lookup_test serve_service_test
      pipeline_stage_graph_test pipeline_resume_test
      pipeline_manifest_test io_csv_test io_snapshot_csv_test core_sibling_list_io_test
      netbase_ip_test
      he_happy_eyeballs_test core_corpus_detect_test core_corpus_reference_test
      core_setcorpus_test core_sptuner_test core_sptuner_reference_test
      dns_zonefile_test dns_name_test mrt_codec_test mrt_bgp4mp_test
      codec_robustness_test bgp_rib_test)
    FILTER='Serve|Pipeline|Csv|SiblingList|IPv4|IPv6|IPAddress|HappyEyeballs|DualStackCorpus|DetectSiblings|SetCorpus|SpTuner|CorpusReference|ZoneFile|DomainName|Mrt|Bgp4mp|Rib|DecoderFuzzProperty|FileFormatRobustness'
    ;;
  *)
    echo "usage: $0 thread|address" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD" -S . -DSP_SANITIZE="$SANITIZE"
cmake --build "$BUILD" -j "$JOBS" --target "${TARGETS[@]}"
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS" -R "$FILTER")
