// Umbrella header: the whole sibling-prefixes library with one include.
//
//   #include "sp.h"
//
// Pulls in the public API of every module. Prefer the per-module headers
// in translation units that only need one subsystem; this header exists
// for quick experiments, examples, and downstream prototypes.
#pragma once

// Foundations.
#include "netbase/date.h"
#include "netbase/ip.h"
#include "netbase/prefix.h"
#include "netbase/prefix_set.h"
#include "trie/flat_lpm.h"
#include "trie/prefix_trie.h"

// Substrates.
#include "alias/ipid.h"
#include "asinfo/as_org.h"
#include "asinfo/asdb.h"
#include "asinfo/asinfo_csv.h"
#include "asinfo/cdn_hg.h"
#include "bgp/rib.h"
#include "dns/name.h"
#include "dns/record.h"
#include "dns/snapshot.h"
#include "dns/zone.h"
#include "dns/zonefile.h"
#include "he/happy_eyeballs.h"
#include "mrt/codec.h"
#include "mrt/file.h"
#include "mrt/types.h"
#include "rpki/roa_csv.h"
#include "rpki/rov.h"
#include "scan/portscan.h"

// The paper's contribution.
#include "core/corpus.h"
#include "core/detect.h"
#include "core/domain_set.h"
#include "core/groundtruth.h"
#include "core/longitudinal.h"
#include "core/portscan_compare.h"
#include "core/probes_io.h"
#include "core/sibling_diff.h"
#include "core/sibling_list_io.h"
#include "core/sibling_sets.h"
#include "core/similarity.h"
#include "core/sptuner.h"

// Serving the published lists.
#include "serve/lookup.h"
#include "serve/service.h"
#include "serve/sibdb.h"

// The longitudinal campaign runner.
#include "pipeline/campaign.h"
#include "pipeline/checkpoint.h"
#include "pipeline/manifest.h"
#include "pipeline/stage_graph.h"

// Synthetic data, analysis and I/O.
#include "analysis/stats.h"
#include "analysis/table.h"
#include "io/csv.h"
#include "io/snapshot_csv.h"
#include "synth/universe.h"
