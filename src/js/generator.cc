#include "src/js/generator.h"

#include <algorithm>
#include <array>
#include <charconv>

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

// The script of Figure 1 as text with holes, each a whole token: '$' and a
// letter. In a fetcher, $d is its done_<i> flag, $f its fetch_<i> function
// and $u (a string literal's text) the URL it fetches. In the dispatcher,
// $a and $b are the factors, $c the offset and $n the number of fetchers;
// in each case, $i is a fetcher's index and $f its function.
enum Shape { kFetcher, kDispatchHead, kDispatchCase, kDispatchTail };
constexpr std::string_view kShapes[] = {
    // kFetcher
    "var $d = false;\n"
    "function $f() {\n"
    "  if ($d == false) {\n"
    "    var img = new Image();\n"
    "    $d = true;\n"
    "    img.src = '$u';\n"
    "    return true;\n"
    "  }\n"
    "  return false;\n"
    "}\n",
    // kDispatchHead
    "function dispatch() {\n"
    "  var sel = ($a * $b + $c) % $n;\n",
    // kDispatchCase
    "  if (sel == $i) { return $f(); }\n",
    // kDispatchTail
    "  return false;\n"
    "}\n",
};

// The texts that fill a shape's holes, by the holes' letters.
class Holes {
 public:
  std::string_view& operator[](char name) { return fillings_[name - 'a']; }
  std::string_view operator[](char name) const { return fillings_[name - 'a']; }

 private:
  std::array<std::string_view, 26> fillings_;
};

// Appends `shape` with its holes filled.
void AppendShapeText(std::string& out, Shape shape, const Holes& holes) {
  const std::string_view text = kShapes[shape];
  size_t from = 0;
  for (size_t at = text.find('$'); at != std::string_view::npos; at = text.find('$', from)) {
    out.append(text.substr(from, at - from)).append(holes[text[at + 1]]);
    from = at + 2;
  }
  out.append(text.substr(from));
}

// Appends the tokens LexJs reads from AppendShapeText(shape, holes) (their
// offsets aside), without writing or lexing that text: each shape is lexed
// once, and a hole's token takes its filling as its text, a literal's
// staying a literal, $d and $f staying identifiers and the rest becoming
// numbers.
void AppendShapeTokens(std::vector<JsToken>& out, Shape shape, const Holes& holes) {
  // A shape's tokens, less the kEof, and the indices of its holes.
  struct Lexed {
    std::vector<JsToken> tokens;
    std::vector<size_t> holes;
  };
  static const std::array<Lexed, std::size(kShapes)> kLexed = [] {
    std::array<Lexed, std::size(kShapes)> lexed;
    for (size_t s = 0; s < lexed.size(); ++s) {
      lexed[s].tokens = LexJs(kShapes[s]).tokens;
      lexed[s].tokens.pop_back();
      for (size_t k = 0; k < lexed[s].tokens.size(); ++k) {
        if (lexed[s].tokens[k].text.starts_with('$')) {
          lexed[s].holes.push_back(k);
        }
      }
    }
    return lexed;
  }();
  const Lexed& lexed = kLexed[shape];
  const size_t first = out.size();
  out.insert(out.end(), lexed.tokens.begin(), lexed.tokens.end());
  for (size_t k : lexed.holes) {
    JsToken& tok = out[first + k];
    const char name = tok.text[1];
    tok.text = holes[name];
    if (tok.type == JsTokenType::kIdentifier && name != 'd' && name != 'f') {
      tok.type = JsTokenType::kNumber;
    }
  }
}

// Calls `append(shape, holes)` for each shape of the script in order: the
// fetchers, then the dispatcher with a case per fetcher.
template <typename Append>
void ForEachShape(const std::vector<Holes>& fetchers, const Holes& dispatch, Append&& append) {
  for (const Holes& holes : fetchers) {
    append(kFetcher, holes);
  }
  append(kDispatchHead, dispatch);
  for (const Holes& holes : fetchers) {
    append(kDispatchCase, holes);
  }
  append(kDispatchTail, dispatch);
}

// "return <dispatcher>();", the handler attribute's code.
std::string HandlerCode(std::string_view dispatcher) {
  std::string code;
  code.reserve(dispatcher.size() + 10);
  code.append("return ").append(dispatcher).append("();");
  return code;
}

}  // namespace

GeneratedBeacon GenerateBeaconScript(const BeaconSpec& spec, Rng& rng) {
  GeneratedBeacon out;
  std::string base;
  base.reserve(7 + spec.host.size() + spec.path_prefix.size());
  base.append("http://").append(spec.host).append(spec.path_prefix);
  out.real_url = ProbeUrl(base, ProbeKind::kBeaconImage, spec.real_key);
  out.decoy_urls.reserve(spec.decoy_keys.size());
  for (const std::string& k : spec.decoy_keys) {
    out.decoy_urls.push_back(ProbeUrl(base, ProbeKind::kBeaconImage, k));
  }

  // Shuffle the real fetcher in among the decoys so its position carries no
  // information.
  const size_t n = spec.decoy_keys.size() + 1;
  const size_t real_pos = static_cast<size_t>(rng.UniformU64(n));
  // The dispatcher: selects the real fetcher via arithmetic that a lexical
  // scraper cannot resolve without evaluating it.
  const uint64_t a = 3 + rng.UniformU64(97);
  const uint64_t b = 3 + rng.UniformU64(97);
  const uint64_t c = (real_pos + n * 200 - (a * b) % n) % n;

  // Every filling in one buffer, reserved up front so views of it stay
  // valid: a fetcher's "done_<i>", "fetch_<i>" and "<i>", and the
  // dispatcher's four numbers, each of at most 20 digits.
  std::string fillings;
  fillings.reserve(n * (5 + 6 + 3 * 20) + 4 * 20);
  auto fill = [&fillings](std::string_view prefix, uint64_t value) {
    const size_t start = fillings.size();
    char digits[20];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
    fillings.append(prefix).append(digits, static_cast<size_t>(end - digits));
    return std::string_view(fillings).substr(start);
  };
  std::vector<Holes> fetchers(n);
  for (size_t i = 0; i < n; ++i) {
    Holes& holes = fetchers[i];
    holes['d'] = fill("done_", i);
    holes['f'] = fill("fetch_", i);
    holes['i'] = fill("", i);
    holes['u'] = i == real_pos ? out.real_url : out.decoy_urls[i < real_pos ? i : i - 1];
  }
  Holes dispatch;
  dispatch['a'] = fill("", a);
  dispatch['b'] = fill("", b);
  dispatch['c'] = fill("", c);
  dispatch['n'] = fill("", n);

  // Levels 1-3 obfuscate the script's tokens, made without writing or
  // lexing its text; level 0 is the text, and levels 4-5 transform it.
  const int level = spec.obfuscation_level;
  ObfuscationOptions options;
  options.rename_identifiers = true;
  // At level 5 the long literals are gone; splitting would only mangle
  // short leftovers.
  options.split_strings = level >= 2 && level < 5;
  options.junk_statements = level >= 3 ? 8 : 0;
  options.pad_to_bytes = level >= 3 ? spec.pad_to_bytes : 0;
  if (level >= 1 && level <= 3) {
    std::vector<JsToken> tokens;
    tokens.reserve(n * 48 + 24);  // A fetcher is 43 tokens, a case 12.
    ForEachShape(fetchers, dispatch,
                 [&tokens](Shape shape, const Holes& holes) {
                   AppendShapeTokens(tokens, shape, holes);
                 });
    tokens.emplace_back();  // kEof.
    ObfuscationResult obf = ObfuscateTokens(std::move(tokens), options, rng);
    out.script_source = std::move(obf.source);
    out.handler_code = HandlerCode(obf.RenamedOrSelf("dispatch"));
    return out;
  }

  std::string src;
  src.reserve(512 * n);
  ForEachShape(fetchers, dispatch, [&src](Shape shape, const Holes& holes) {
    AppendShapeText(src, shape, holes);
  });

  std::string dispatcher_name = "dispatch";
  if (level >= 5) {
    TransformResult encoded = EncodeStringsAsCharCodes(src, rng);
    if (encoded.ok) {
      src = std::move(encoded.source);
    }
  }
  if (level >= 4) {
    // AST-level pass first: opaque predicates survive the token-level
    // renaming/splitting that follows.
    TransformResult transformed = ApplyOpaquePredicates(src, 8, rng);
    if (transformed.ok) {
      src = std::move(transformed.source);
    }
    ObfuscationResult obf = ObfuscateJs(src, options, rng);
    if (obf.ok) {
      src = std::move(obf.source);
      dispatcher_name = obf.RenamedOrSelf("dispatch");
    }
  }

  out.script_source = std::move(src);
  out.handler_code = HandlerCode(dispatcher_name);
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
    return HandlerCode("dispatch");
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
  return HandlerCode(DrawFreshIdentifier(rng, used));
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
