#include "src/js/generator.h"

#include <algorithm>

#include "src/js/obfuscator.h"
#include "src/js/transforms.h"
#include "src/util/strings.h"

namespace robodet {
namespace {

struct ProbeShape {
  std::string_view stem;  // A fixed name whole.
  std::string_view ext;   // Empty for a fixed name.
};

// Indexed by ProbeKind. ParseProbePath takes the first shape that matches,
// so captcha_img_ precedes captcha_.
constexpr ProbeShape kProbeShapes[] = {
    {"js_", ".js"},            // kBeaconScript
    {"ua_", ".css"},           // kUaEcho
    {"cp_", ".css"},           // kCssProbe
    {"ap_", ".wav"},           // kAudioProbe
    {"hl_", ".html"},          // kHiddenLink
    {"captcha.html", ""},      // kCaptchaPage
    {"captcha_img_", ".jpg"},  // kCaptchaImage
    {"captcha_", ".cgi"},      // kCaptchaSubmit
    {"bk_", ".jpg"},           // kBeaconImage
    {"ti.jpg", ""},            // kTransparentImage
};
static_assert(std::size(kProbeShapes) == static_cast<size_t>(ProbeKind::kNone));

// One guarded fetcher function in the Figure-1 shape. Appends in place —
// this runs once per probe key on every instrumented page, so it must not
// churn temporaries.
void AppendFetcher(std::string& out, int index, const std::string& url) {
  const std::string idx = std::to_string(index);
  out.append("var done_").append(idx).append(" = false;\n");
  out.append("function fetch_").append(idx).append("() {\n");
  out.append("  if (done_").append(idx).append(" == false) {\n");
  out.append("    var img = new Image();\n");
  out.append("    done_").append(idx).append(" = true;\n");
  out.append("    img.src = '").append(url).append("';\n");
  out.append("    return true;\n");
  out.append("  }\n");
  out.append("  return false;\n");
  out.append("}\n");
}

}  // namespace

GeneratedBeacon GenerateBeaconScript(const BeaconSpec& spec, Rng& rng) {
  GeneratedBeacon out;
  const std::string base = "http://" + spec.host + spec.path_prefix;
  out.real_url = ProbeUrl(base, ProbeKind::kBeaconImage, spec.real_key);
  for (const std::string& k : spec.decoy_keys) {
    out.decoy_urls.push_back(ProbeUrl(base, ProbeKind::kBeaconImage, k));
  }

  // Shuffle the real fetcher in among the decoys so its position carries no
  // information.
  const size_t n = spec.decoy_keys.size() + 1;
  const size_t real_pos = static_cast<size_t>(rng.UniformU64(n));

  std::string src;
  src.reserve(512 * n);
  for (size_t i = 0; i < n; ++i) {
    const std::string& url =
        i == real_pos ? out.real_url : out.decoy_urls[i < real_pos ? i : i - 1];
    AppendFetcher(src, static_cast<int>(i), url);
  }

  // The dispatcher: selects the real fetcher via arithmetic that a lexical
  // scraper cannot resolve without evaluating it.
  const uint64_t a = 3 + rng.UniformU64(97);
  const uint64_t b = 3 + rng.UniformU64(97);
  const uint64_t c = (real_pos + n * 200 - (a * b) % n) % n;
  src.append("function dispatch() {\n");
  src.append("  var sel = (").append(std::to_string(a)).append(" * ").append(std::to_string(b));
  src.append(" + ").append(std::to_string(c)).append(") % ").append(std::to_string(n));
  src.append(";\n");
  for (size_t i = 0; i < n; ++i) {
    const std::string idx = std::to_string(i);
    src.append("  if (sel == ").append(idx).append(") { return fetch_").append(idx);
    src.append("(); }\n");
  }
  src.append("  return false;\n");
  src.append("}\n");

  std::string dispatcher_name = "dispatch";
  if (spec.obfuscation_level >= 5) {
    TransformResult encoded = EncodeStringsAsCharCodes(src, rng);
    if (encoded.ok) {
      src = std::move(encoded.source);
    }
  }
  if (spec.obfuscation_level >= 4) {
    // AST-level pass first: opaque predicates survive the token-level
    // renaming/splitting that follows.
    TransformResult transformed = ApplyOpaquePredicates(src, 8, rng);
    if (transformed.ok) {
      src = std::move(transformed.source);
    }
  }
  if (spec.obfuscation_level > 0) {
    ObfuscationOptions options;
    options.rename_identifiers = true;
    // At level 5 the long literals are gone; splitting would only mangle
    // short leftovers.
    options.split_strings = spec.obfuscation_level >= 2 && spec.obfuscation_level < 5;
    options.junk_statements = spec.obfuscation_level >= 3 ? 8 : 0;
    options.pad_to_bytes = spec.obfuscation_level >= 3 ? spec.pad_to_bytes : 0;
    ObfuscationResult obf = ObfuscateJs(src, options, rng);
    if (obf.ok) {
      src = std::move(obf.source);
      dispatcher_name = obf.RenamedOrSelf("dispatch");
    }
  }

  out.script_source = std::move(src);
  out.handler_code = "return " + dispatcher_name + "();";
  return out;
}

std::string DeriveBeaconHandler(const BeaconSpec& spec, Rng& rng) {
  // GenerateBeaconScript's draws before it obfuscates: the real fetcher's
  // slot, then the dispatcher's two factors. Replayed with the same bounds,
  // since rejection sampling may take more than one word per draw.
  const size_t n = spec.decoy_keys.size() + 1;
  rng.UniformU64(n);
  rng.UniformU64(97);
  rng.UniformU64(97);
  if (spec.obfuscation_level == 0) {
    return "return dispatch();";
  }
  // Levels 1-3 rename first, drawing a fresh name per identifier in order of
  // first appearance: done_0, fetch_0, img, then done_i, fetch_i for each
  // later fetcher (Image is protected, .src a property), then dispatch. The
  // script's own names never start with '_' as drawn names do, so only the
  // drawn names can collide, and `used` holds just those.
  IdentifierSet used;
  for (size_t i = 0; i < 2 * n + 1; ++i) {
    DrawFreshIdentifier(rng, used);
  }
  return "return " + DrawFreshIdentifier(rng, used) + "();";
}

std::string GenerateUaEchoScript(const std::string& host, const std::string& path_prefix,
                                 const std::string& token) {
  // On execution, writes a stylesheet link whose URL carries the token plus
  // the lowercased, space-stripped runtime user agent (Figure 1's
  // getuseragnt()). A client that fetches the written stylesheet has, by
  // construction, executed JavaScript.
  std::string src;
  src.reserve(192 + host.size() + path_prefix.size() + token.size());
  src += "var agt = navigator.userAgent.toLowerCase();\n";
  src += "agt = agt.replaceAll(' ', '');\n";
  src += "agt = agt.replaceAll('/', '-');\n";
  // The agent is spliced into the name at run time.
  src += "document.write('<link rel=\"stylesheet\" type=\"text/css\" href=\"" +
         ProbeUrl("http://" + host + path_prefix, ProbeKind::kUaEcho, token + "_' + agt + '") +
         "\">');\n";
  return src;
}

std::string ProbeUrl(std::string_view base, ProbeKind kind, std::string_view name) {
  const auto [stem, ext] = kProbeShapes[static_cast<size_t>(kind)];
  std::string url;
  url.reserve(base.size() + stem.size() + name.size() + ext.size());
  url.append(base).append(stem).append(name).append(ext);
  return url;
}

ParsedProbe ParseProbePath(std::string_view path, std::string_view prefix) {
  if (!path.starts_with(prefix)) {
    return {};
  }
  const std::string_view rest = path.substr(prefix.size());
  for (size_t i = 0; i < std::size(kProbeShapes); ++i) {
    const auto [stem, ext] = kProbeShapes[i];
    const size_t shape = stem.size() + ext.size();
    if (!rest.starts_with(stem) || !rest.ends_with(ext) ||
        (ext.empty() ? rest.size() != shape : rest.size() <= shape)) {
      continue;
    }
    ParsedProbe parsed{static_cast<ProbeKind>(i), rest.substr(stem.size(), rest.size() - shape),
                       {}};
    if (parsed.kind == ProbeKind::kUaEcho) {
      const size_t underscore = parsed.name.find('_');
      if (underscore == 0) {
        return {};  // No token.
      }
      if (underscore != std::string_view::npos) {
        parsed.agent = parsed.name.substr(underscore + 1);
        parsed.name = parsed.name.substr(0, underscore);
      }
    }
    return parsed;
  }
  return {};
}

std::string ExtractBeaconKey(const std::string& path, const std::string& path_prefix) {
  const ParsedProbe parsed = ParseProbePath(path, path_prefix);
  return parsed.kind == ProbeKind::kBeaconImage ? std::string(parsed.name) : std::string();
}

}  // namespace robodet
