// robodet_rewrite: instrument a single HTML document from a file or stdin
// and print the rewritten page — the §2 transformation in isolation, for
// eyeballing what the proxy actually injects.
//
// Usage:
//   robodet_rewrite [--in=page.html] [--host=www.example.com]
//       [--decoys=4] [--obf=2] [--seed=1] [--show-script]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/robodet.h"
#include "tools/flags.h"

using namespace robodet;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    std::fprintf(stderr,
                 "usage: robodet_rewrite [--in=page.html] [--host=H] [--decoys=M] "
                 "[--obf=0..4] [--seed=S] [--show-script]\n");
    return 0;
  }

  std::string html;
  if (flags.GetBool("in")) {
    std::ifstream in(flags.GetString("in", ""));
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", flags.GetString("in", "").c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    html = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    html = buffer.str();
  }

  const std::string host = flags.GetString("host", "www.example.com");
  const std::string prefix = "/__rd/";
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));

  // Generate the beacon exactly as the proxy would.
  BeaconSpec spec;
  spec.host = host;
  spec.path_prefix = prefix;
  spec.real_key = rng.HexKey128();
  const long decoys = flags.GetInt("decoys", 4);
  for (long i = 0; i < decoys; ++i) {
    spec.decoy_keys.push_back(rng.HexKey128());
  }
  spec.obfuscation_level = static_cast<int>(flags.GetInt("obf", 2));
  spec.pad_to_bytes = 1024;
  const GeneratedBeacon beacon = GenerateBeaconScript(spec, rng);

  TokenMinter minter(0xbeef, &rng);
  InjectionPlan plan;
  plan.beacon_script_url = "http://" + host + prefix + "js_" + minter.Mint() + ".js";
  plan.mouse_handler_code = beacon.handler_code;
  plan.ua_echo_script = GenerateUaEchoScript(host, prefix, minter.Mint());
  plan.css_probe_url = "http://" + host + prefix + "cp_" + minter.Mint() + ".css";
  plan.hidden_link_url = "http://" + host + prefix + "hl_" + minter.Mint() + ".html";
  plan.transparent_image_url = "http://" + host + prefix + "ti.jpg";

  const InjectionResult result = InstrumentHtml(html, plan);
  std::fputs(result.html.c_str(), stdout);

  std::fprintf(stderr,
               "\n-- robodet_rewrite: +%zu bytes; handler=\"%s\"; real beacon key %s "
               "(%ld decoys)\n",
               result.added_bytes, beacon.handler_code.c_str(), spec.real_key.c_str(),
               decoys);
  if (flags.GetBool("show-script")) {
    std::fprintf(stderr, "-- beacon script (%zu bytes):\n%s\n",
                 beacon.script_source.size(), beacon.script_source.c_str());
  }
  return 0;
}
