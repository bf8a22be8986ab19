// robodet_rewrite: serve one HTML document, from a file or stdin, through a
// ProxyServer whose origin returns it, and print the page the proxy serves:
// the §2 transformation in isolation, for eyeballing what the proxy injects.
//
// Usage:
//   robodet_rewrite [--in=page.html] [--host=www.example.com]
//       [--decoys=4] [--seed=1] [--show-script]
//
// --seed is the proxy's secret, from which every token and key derives.
// --show-script fetches the page's beacon script through the same proxy and
// prints it with its real key.
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
                 "[--seed=S] [--show-script]\n");
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

  ProxyConfig config;
  config.host = flags.GetString("host", config.host);
  const long decoys = flags.GetInt("decoys", static_cast<long>(config.num_decoys));
  if (decoys < 0) {
    std::fprintf(stderr, "error: --decoys=%ld must not be negative\n", decoys);
    return 2;
  }
  config.num_decoys = static_cast<size_t>(decoys);
  config.secret = static_cast<uint64_t>(flags.GetInt("seed", 1));
  SimClock clock;
  ProxyServer proxy(config, &clock,
                    [&html](const Request&) { return MakeHtmlResponse(html); });
  auto get = [&](const Url& url) {
    Request request;
    request.client_ip = IpAddress(0x0a000001);  // 10.0.0.1
    request.url = url;
    request.time = clock.Now();
    return proxy.Handle(request).response;
  };

  const Response page = get(Url::Make(config.host, "/"));
  std::fputs(page.body.c_str(), stdout);
  std::fprintf(stderr, "\n-- robodet_rewrite: +%zu bytes (%zu decoys)\n",
               page.body.size() - html.size(), config.num_decoys);

  if (flags.GetBool("show-script")) {
    const HtmlDocument doc(page.body);
    for (const EmbedRef& embed : doc.EmbeddedObjects()) {
      const auto url = Url::Parse(embed.url);
      if (!url.has_value()) {
        continue;
      }
      const ParsedProbe probe = ParseProbePath(url->path(), config.instr_prefix);
      if (probe.kind != ProbeKind::kBeaconScript) {
        continue;
      }
      std::string key;
      proxy.BuildBeaconForToken(probe.name, &key);
      const Response script = get(*url);
      std::fprintf(stderr, "-- beacon script %s (%zu bytes), real key %s:\n%s\n",
                   url->ToString().c_str(), script.body.size(), key.c_str(),
                   script.body.c_str());
      return 0;
    }
    std::fprintf(stderr, "-- the served page carries no beacon script\n");
  }
  return 0;
}
