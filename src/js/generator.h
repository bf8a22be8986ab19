// Beacon-script generation: the server-side half of §2.1. For each page
// served to each client the proxy generates a fresh script containing one
// real beacon fetcher (image URL carrying the random key k) and m decoy
// fetchers carrying wrong keys. The handler wired into the page calls a
// dispatcher whose arithmetic selects the real fetcher only at run time, so
// a robot that merely scrapes URLs out of the script — or out of the HTML —
// cannot tell the real beacon from the decoys without executing the code.
#ifndef ROBODET_SRC_JS_GENERATOR_H_
#define ROBODET_SRC_JS_GENERATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/rng.h"

namespace robodet {

struct BeaconSpec {
  // Host and path prefix for the beacon image URLs, e.g.
  // "www.example.com" + "/__rd/" -> http://www.example.com/__rd/<key>.jpg.
  std::string host;
  std::string path_prefix = "/";
  // The real key k (hex); requests carrying it prove human activity.
  std::string real_key;
  // Wrong keys for the m decoy fetchers.
  std::vector<std::string> decoy_keys;
  // 0: plain (Figure 1 style). 1: +identifier renaming. 2: +string
  // splitting. 3: +junk statements and padding. 4: +AST-level opaque
  // predicates. 5: +String.fromCharCode encoding — beacon URLs no longer
  // appear as string literals at all (js/transforms.h).
  int obfuscation_level = 0;
  // With level >= 3, pad the script with junk to at least this many bytes
  // (the paper's measured scripts were ~1KB). 0 disables.
  size_t pad_to_bytes = 0;
};

struct GeneratedBeacon {
  // Contents of the external .js file.
  std::string script_source;
  // Attribute value for onmousemove/onclick, e.g. "return d12();".
  std::string handler_code;
  // The URL the script fetches when the handler fires.
  std::string real_url;
  // URLs of the decoys, in script order.
  std::vector<std::string> decoy_urls;
};

GeneratedBeacon GenerateBeaconScript(const BeaconSpec& spec, Rng& rng);

// The handler_code GenerateBeaconScript(spec, rng) returns, computed without
// building, lexing or obfuscating the script: it replays the generator's
// draws from `rng` in the generator's order, up to the renamer's name for
// the dispatcher. Valid for obfuscation levels 0-3; above that the AST
// transforms draw from `rng` before the renamer does. Reads only the spec's
// obfuscation level and the number of its decoy keys, not the keys.
std::string DeriveBeaconHandler(const BeaconSpec& spec, Rng& rng);

// The UA-echo inline script (second <script> block in Figure 1): on
// execution it document.write()s a stylesheet link whose URL embeds a
// session token plus the sanitized navigator.userAgent, telling the server
// both "this client executes JavaScript" and what the *actual* runtime
// claims to be (vs. the easily forged User-Agent header).
std::string GenerateUaEchoScript(const std::string& host, const std::string& path_prefix,
                                 const std::string& token);

// The probe namespace: every URL the proxy writes into a page or answers
// itself is <prefix><stem><name><ext> or <prefix><fixed name>, spelled here
// and nowhere else. The kinds the proxy mints a token for come first; their
// values are mint tags, which keep one request's tokens apart, so changing
// one changes every token served.
enum class ProbeKind {
  kBeaconScript = 0,  // js_<token>.js
  kUaEcho = 1,        // ua_<token>_<agent>.css, written by the UA-echo script.
  kCssProbe = 2,      // cp_<token>.css
  kAudioProbe = 3,    // ap_<token>.wav
  kHiddenLink = 4,    // hl_<token>.html
  kCaptchaPage = 5,   // captcha.html, which issues the next two's token.
  kCaptchaImage,      // captcha_img_<token>.jpg
  kCaptchaSubmit,     // captcha_<token>.cgi?ans=<answer>
  kBeaconImage,       // bk_<key>.jpg, real or decoy.
  kTransparentImage,  // ti.jpg
  kNone,              // Not a probe.
};

// <base><stem><name><ext>, where `base` is the prefix for a request path or
// "http://<host><prefix>" for a URL in a page. Fixed names take no `name`.
std::string ProbeUrl(std::string_view base, ProbeKind kind, std::string_view name = {});

struct ParsedProbe {
  ProbeKind kind = ProbeKind::kNone;
  // Views into the parsed path: the token or key (for kUaEcho, the part
  // before the first '_') and, for kUaEcho, the echoed agent after it.
  std::string_view name;
  std::string_view agent;
};

// The probe `path` names, if any. Stem kinds need a non-empty name, and
// the longer stem wins (captcha_img_ over captcha_).
ParsedProbe ParseProbePath(std::string_view path, std::string_view prefix);

// The key of a beacon image path, or "" for any other path.
std::string ExtractBeaconKey(const std::string& path, const std::string& path_prefix);

}  // namespace robodet

#endif  // ROBODET_SRC_JS_GENERATOR_H_
