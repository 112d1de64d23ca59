#include "workload/app_graph.hh"

#include "sim/logging.hh"

namespace umany
{

const char *const socialNetworkEndpointNames[8] = {
    "Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost",
    "UrlShort",
};

namespace
{

/** Builder helpers binding the calibration parameters. */
struct Gen
{
    AppGraphParams p;

    /** One compute segment: lognormal around @p mean_us of work. */
    Tick
    seg(Rng &rng, double mean_us) const
    {
        const double us =
            LognormalDist(mean_us * p.workScale, p.segSigma)
                .sample(rng);
        return fromUs(us);
    }

    static CallStep
    storage(std::uint32_t req_bytes = 512,
            std::uint32_t rsp_bytes = 12288)
    {
        CallStep c;
        c.kind = CallStep::Kind::Storage;
        c.requestBytes = req_bytes;
        c.responseBytes = rsp_bytes;
        return c;
    }

    static CallStep
    call(ServiceId callee, std::uint32_t req_bytes = 512,
         std::uint32_t rsp_bytes = 4096)
    {
        CallStep c;
        c.kind = CallStep::Kind::Service;
        c.callee = callee;
        c.requestBytes = req_bytes;
        c.responseBytes = rsp_bytes;
        return c;
    }
};

} // namespace

ServiceCatalog
buildSocialNetwork(const AppGraphParams &p)
{
    ServiceCatalog cat;
    Gen g{p};

    // ---- Internal (non-endpoint) leaf services. ----

    ServiceSpec unique_id;
    unique_id.name = "UniqueId";
    unique_id.loadWeight = 0.5;
    unique_id.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 25)};
        return b;
    };
    const ServiceId id_unique = cat.add(unique_id);

    ServiceSpec media;
    media.name = "Media";
    media.loadWeight = 1.0;
    media.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 60), g.seg(rng, 40)};
        b.groups = {{Gen::storage(1024, 49152), Gen::storage(512, 24576)}};
        return b;
    };
    const ServiceId id_media = cat.add(media);

    ServiceSpec user_timeline;
    user_timeline.name = "UserTimeline";
    user_timeline.loadWeight = 1.0;
    user_timeline.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 45), g.seg(rng, 30)};
        b.groups = {{Gen::storage(512, 24576), Gen::storage(512, 1024)}};
        return b;
    };
    const ServiceId id_user_timeline = cat.add(user_timeline);

    // ---- Endpoints (the 8 "apps" of Fig 14). ----
    // Registration order matters only for readability; ids are
    // captured as they are assigned so nested endpoints (Text calls
    // UrlShort/UsrMnt; HomeT calls PstStr/SGraph; CPost nests Text)
    // resolve correctly. Leaf-most endpoints are added first.

    ServiceSpec url_short;
    url_short.name = "UrlShort";
    url_short.endpoint = true;
    url_short.loadWeight = 1.5; // Also called by Text.
    url_short.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 45), g.seg(rng, 25)};
        b.groups = {{Gen::storage()}};
        return b;
    };
    const ServiceId id_urlshort = cat.add(url_short);

    ServiceSpec usr_mnt;
    usr_mnt.name = "UsrMnt";
    usr_mnt.endpoint = true;
    usr_mnt.loadWeight = 1.5;
    usr_mnt.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 50), g.seg(rng, 35)};
        b.groups = {{Gen::storage(), Gen::storage()}};
        return b;
    };
    const ServiceId id_usrmnt = cat.add(usr_mnt);

    ServiceSpec pststr;
    pststr.name = "PstStr";
    pststr.endpoint = true;
    pststr.loadWeight = 2.0; // Also called by HomeT and CPost.
    pststr.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 55), g.seg(rng, 35)};
        b.groups = {{Gen::storage(2048, 24576), Gen::storage(512, 24576)}};
        return b;
    };
    const ServiceId id_pststr = cat.add(pststr);

    ServiceSpec sgraph;
    sgraph.name = "SGraph";
    sgraph.endpoint = true;
    sgraph.loadWeight = 2.0;
    sgraph.makeBehavior = [g](Rng &rng) {
        Behavior b;
        // Social-graph reads fan out to storage, then rank.
        b.segments = {g.seg(rng, 65), g.seg(rng, 45), g.seg(rng, 30)};
        b.groups = {{Gen::storage(), Gen::storage(), Gen::storage(),
                     Gen::storage()},
                    {Gen::storage()}};
        return b;
    };
    const ServiceId id_sgraph = cat.add(sgraph);

    ServiceSpec user;
    user.name = "User";
    user.endpoint = true;
    user.makeBehavior = [g](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 60), g.seg(rng, 40), g.seg(rng, 25)};
        b.groups = {{Gen::storage()}, {Gen::storage()}};
        return b;
    };
    cat.add(user);

    ServiceSpec text;
    text.name = "Text";
    text.endpoint = true;
    text.loadWeight = 2.0; // Also nested under CPost.
    text.makeBehavior = [g, id_urlshort, id_usrmnt](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 70), g.seg(rng, 45), g.seg(rng, 30)};
        // Shorten the 1-2 URLs and resolve mentions in parallel,
        // then persist.
        CallGroup fanout{Gen::call(id_urlshort), Gen::call(id_usrmnt)};
        if (rng.chance(0.4))
            fanout.push_back(Gen::call(id_urlshort));
        b.groups = {std::move(fanout), {Gen::storage()}};
        return b;
    };
    const ServiceId id_text = cat.add(text);

    ServiceSpec homet;
    homet.name = "HomeT";
    homet.endpoint = true;
    homet.loadWeight = 2.0;
    homet.makeBehavior = [g, id_pststr, id_sgraph](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 65), g.seg(rng, 45), g.seg(rng, 35)};
        b.groups = {
            {Gen::call(id_sgraph, 512, 8192),
             Gen::call(id_pststr, 512, 32768),
             Gen::call(id_pststr, 512, 32768)},
            {Gen::storage(), Gen::storage()},
        };
        return b;
    };
    cat.add(homet);

    ServiceSpec cpost;
    cpost.name = "CPost";
    cpost.endpoint = true;
    cpost.loadWeight = 2.5;
    cpost.makeBehavior = [g, id_unique, id_media, id_text, id_pststr,
                          id_user_timeline, id_usrmnt](Rng &rng) {
        Behavior b;
        b.segments = {g.seg(rng, 85), g.seg(rng, 55), g.seg(rng, 40),
                      g.seg(rng, 25)};
        b.groups = {
            // Compose: id + media + text processing in parallel
            // (Text itself fans out further).
            {Gen::call(id_unique, 256, 256),
             Gen::call(id_media, 1024, 2048),
             Gen::call(id_text, 1024, 2048)},
            // Persist to post storage and the user timeline.
            {Gen::call(id_pststr, 2048, 512),
             Gen::call(id_user_timeline, 512, 512),
             Gen::call(id_usrmnt, 512, 512)},
            {Gen::storage()},
        };
        return b;
    };
    cat.add(cpost);

    // Sanity: the 8 endpoint names must all be present.
    for (const char *name : socialNetworkEndpointNames) {
        if (cat.byName(name) == nullptr)
            panic("social network graph is missing endpoint %s", name);
    }
    return cat;
}

} // namespace umany
